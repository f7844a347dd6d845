package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// layers are the simulator's modules the host-time split reports. Files of
// repro/internal/<layer>/ belong to that layer, internal/workload/* to
// workload, internal/obs/** (flightrec, reqtrace, attr) to obs, and the Go
// runtime and GC to gort. Everything else is "other".
var layers = []string{
	"cache", "coherence", "memsys", "osmodel", "cpu", "ifetch", "simrand", "trace",
	"jvm", "workload", "netsim", "db", "appserver", "obs", "core", "gort",
}

// sampleRate is the Go CPU profiler's default rate, in samples per second.
const sampleRate = 100

// layerOf maps a source file named in a profile to its layer. It accepts
// module paths as built with -trimpath (repro@v0.0.0-…/internal/cache/x.go,
// runtime/proc.go) and absolute paths.
func layerOf(file string) string {
	if strings.HasPrefix(file, "runtime/") || strings.Contains(file, "/src/runtime/") {
		return "gort"
	}
	i := strings.LastIndex("/"+file, "/internal/")
	if i < 0 {
		return "other"
	}
	rest := file[i+len("internal/"):]
	pkg, _, _ := strings.Cut(rest, "/")
	if pkg == "runtime" { // the standard library's internal/runtime/...
		return "gort"
	}
	for _, l := range layers {
		if pkg == l {
			return l
		}
	}
	return "other"
}

// foldTop reads `go tool pprof -top -files` output and returns each layer's
// flat host time and the total. A file appears in several rows (one per
// inlined or distinct node); all of them count.
func foldTop(r io.Reader) (map[string]time.Duration, time.Duration, error) {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	sc := bufio.NewScanner(r)
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) == 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := parseFlat(fields[0])
		if err != nil {
			return nil, 0, err
		}
		byLayer[layerOf(fields[5])] += flat
		total += flat
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if !header {
		return nil, 0, fmt.Errorf("no pprof table header found")
	}
	return byLayer, total, nil
}

// parseFlat reads a pprof time column such as "0", "10ms", "1.25s" or
// "1.50mins".
func parseFlat(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	s = strings.NewReplacer("mins", "m", "hrs", "h").Replace(s)
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof flat column %q: %w", s, err)
	}
	return d, nil
}

// foldProfiles merges CPU profiles with `go tool pprof`, keeps its text
// report at topPath, and folds it by layer.
func foldProfiles(topPath string, profiles []string) (map[string]time.Duration, time.Duration, error) {
	args := append([]string{"tool", "pprof", "-top", "-files", "-nodefraction=0"}, profiles...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	if err := os.WriteFile(topPath, out, 0o644); err != nil {
		return nil, 0, err
	}
	return foldTop(strings.NewReader(string(out)))
}
