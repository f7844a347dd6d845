// Package drivertest holds the checks every driver command's tests share,
// and the golden-file comparison the output-pinning tests share.
package drivertest

import (
	"bytes"
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
// unless every standard observability and host-profile flag is there, and
// every flag in own, the driver's own surface.
func FlagParity[T any](t *testing.T, register func(*flag.FlagSet) T, own ...string) {
	t.Helper()
	fs := flag.NewFlagSet("parity", flag.ContinueOnError)
	register(fs)
	want := append(obs.StandardFlagNames(), obs.HostProfileFlagNames()...)
	for _, name := range append(want, own...) {
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
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

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
