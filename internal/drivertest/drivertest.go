// Package drivertest holds the checks every driver command's tests share,
// and the golden-file comparison the output-pinning tests share.
package drivertest

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// Main is a driver's testable seam: the whole program, taking its arguments
// and output streams and returning the exit code.
type Main func(args []string, stdout, stderr io.Writer) int

// FlagParity registers a driver's flags onto a scratch FlagSet and fails
// unless every standard observability flag is there, and every flag in
// own, the driver's own surface.
func FlagParity[T any](t *testing.T, register func(*flag.FlagSet) T, own ...string) {
	t.Helper()
	fs := flag.NewFlagSet("parity", flag.ContinueOnError)
	register(fs)
	for _, name := range append(obs.StandardFlagNames(), own...) {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

// StdoutPassivity runs the driver with args three times — with the flight
// recorder off, at the observability defaults, and with -trace, -metrics
// and -profile written to a temporary directory — and fails unless stdout
// is byte-identical across them: observability must never leak into a
// report. mask, when non-nil, matches host-timing text (wall-clock
// durations) that legitimately varies between runs; it is blanked before
// comparing. The runs execute in a scratch working directory, so default-on
// flight dumps cannot land in the source tree.
func StdoutPassivity(t *testing.T, run Main, mask *regexp.Regexp, args ...string) {
	t.Helper()
	chdirTemp(t)
	dir := t.TempDir()
	var want []byte
	for i, extra := range [][]string{
		{"-flight", "off"},
		nil, // the defaults
		{
			"-trace", filepath.Join(dir, "trace.json"),
			"-metrics", filepath.Join(dir, "metrics.txt"),
			"-profile", filepath.Join(dir, "profile.folded"),
		},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(append([]string(nil), args...), extra...), &stdout, &stderr); code != 0 {
			t.Fatalf("extra flags %q: exit %d\n%s", extra, code, stderr.String())
		}
		got := stdout.Bytes()
		if mask != nil {
			got = mask.ReplaceAll(got, nil)
		}
		switch {
		case i == 0 && len(got) == 0:
			t.Fatal("empty stdout")
		case i == 0:
			want = got
		case !bytes.Equal(got, want):
			t.Errorf("extra flags %q: stdout differs from -flight off:\n%s\nwant:\n%s", extra, got, want)
		}
	}
}

// chdirTemp makes a fresh temporary directory the working directory until
// the test ends.
func chdirTemp(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// jsonFlags are the observability flags whose artifact is JSON.
var jsonFlags = map[string]bool{"-trace": true, "-latency": true, "-attr": true}

// Run runs the driver with args in a fresh temporary working directory,
// which stays the working directory until the test ends, so relative
// artifact paths and default flight dumps land there. It fails the test
// unless the driver exits 0, every -trace, -latency and -attr file named in
// args parses as JSON, and no spill or temporary file (a name holding
// ".spill" or ".tmp") is left in the directory.
func Run(t *testing.T, run Main, args ...string) {
	t.Helper()
	chdirTemp(t)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	for i := 0; i+1 < len(args); i++ {
		if f := args[i+1]; jsonFlags[args[i]] && f != "-" {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(b) {
				t.Errorf("%s %s: not valid JSON", args[i], f)
			}
		}
	}
	left, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if n := e.Name(); strings.Contains(n, ".spill") || strings.Contains(n, ".tmp") {
			t.Errorf("%s: spill or temporary file %s left behind", strings.Join(args, " "), n)
		}
	}
}

// TraceMetadataFirst fails the test unless the Chrome trace at path is a
// JSON array whose first record is metadata ("ph":"M"), every pid's
// metadata records come before that pid's events, and the trace's
// directory holds nothing besides the trace and its manifest.
func TraceMetadataFirst(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct {
		Ph  string `json:"ph"`
		Pid int    `json:"pid"`
	}
	if err := json.Unmarshal(b, &recs); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(recs) == 0 || recs[0].Ph != "M" {
		t.Fatalf("%s: first record is not track metadata", path)
	}
	events := map[int]bool{} // pids whose events have begun
	for i, r := range recs {
		switch {
		case r.Ph != "M":
			events[r.Pid] = true
		case events[r.Pid]:
			t.Fatalf("%s: record %d is pid %d's track metadata, after its events", path, i, r.Pid)
		}
	}
	dir, name := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.Name() != name && e.Name() != name+".manifest.json" {
			t.Errorf("%s: %s left beside the trace", path, e.Name())
		}
	}
}

// Golden compares got with the golden file at path, first rewriting the
// file when update is set (each test package's -update flag). A mismatch
// reports the first line that differs.
func Golden(t *testing.T, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	t.Errorf("output differs from %s at line %d (rerun with -update only for an intended change):\ngot  %s\nwant %s",
		path, i+1, line(g), line(w))
}
