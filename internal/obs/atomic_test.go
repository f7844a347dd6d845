package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")

	if err := AtomicWriteFile(path, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"a":1}` {
		t.Fatalf("content %q", got)
	}

	// Overwrite: the new content replaces the old in one step.
	if err := AtomicWriteFile(path, []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != `{"a":2}` {
		t.Fatalf("after overwrite: %q", got)
	}

	// No temporary droppings left behind.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(ents))
	}
}

func TestAtomicAbortLeavesOriginal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("original"), 0o644); err != nil {
		t.Fatal(err)
	}

	w, err := AtomicCreate(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("partial garbage")); err != nil {
		t.Fatal(err)
	}
	w.Abort()

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("abort clobbered the original: %q", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("abort left temp files: %d entries", len(ents))
	}

	// Abort after Close is a no-op and must not remove the published file.
	w2, err := AtomicCreate(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.Write([]byte("new"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w2.Abort()
	if err := w2.Close(); err != nil { // double Close is a no-op too
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "new" {
		t.Fatalf("post-Close Abort removed the file: %q", got)
	}
}

func TestHeartbeatStopIdempotent(t *testing.T) {
	var buf bytes.Buffer
	h := StartHeartbeat(&buf, "test", time.Hour)
	for i := 0; i < 3; i++ {
		h.AddRun()
	}
	h.Stop()
	h.Stop() // deferred duplicate on the clean-exit path must not panic
	out := buf.String()
	if !strings.Contains(out, "3 runs") {
		t.Fatalf("final flush missing run count: %q", out)
	}
	if n := strings.Count(out, "\n"); n != 1 {
		t.Fatalf("want exactly one final line, got %d: %q", n, out)
	}

	var nilHB *Heartbeat
	nilHB.Stop()
	nilHB.Stop()
}
