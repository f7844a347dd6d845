// Command perfcheck is the host-performance regression harness: it runs a
// pinned set of benchmarks plus end-to-end wall-clock measurements of the
// figures pipeline, records the results as the next BENCH_<n>.json in the
// series, and compares both ns/op and allocs/op against a committed
// baseline with tolerance gates, so a change that quietly slows the
// simulator down — or quietly re-inflates its allocation rate — fails CI
// instead of landing.
//
// Usage:
//
//	go run ./cmd/perfcheck                  # run, write next BENCH_<n>.json, gate vs baseline
//	go run ./cmd/perfcheck -update          # refresh BENCH_baseline.json (new machine or accepted change)
//	go run ./cmd/perfcheck -full            # also gate the full-fidelity figures run (slow; nightly/manual)
//	go run ./cmd/perfcheck -count 5 -tol 0.5
//
// The pinned set mixes macro benchmarks (full figure pipelines, dominated by
// the simulator's end-to-end hot path) with bus-level micro benchmarks that
// isolate the snooping machinery and the HDR-histogram record/merge path the
// latency collector leans on. Results are min-of-count: the minimum is the
// least noisy estimator on a shared machine.
//
// On top of the go-test benchmarks, perfcheck times the figures binary end
// to end: `figures -quick` always, the full-fidelity run with -full. These
// wall-clock pseudo-benchmarks (keys "e2e:FiguresQuick", "e2e:FiguresFull")
// gate exactly like ns/op, catching regressions the microbenchmarks can't
// see — scheduling stalls, per-figure setup cost, GC pressure from the
// drivers themselves.
//
// It also gates what observability costs: e2e:ObsOverhead runs ecperfsim
// plain and with -trace -latency -attr -metrics, and jbbsim with its
// default flight recorder and with -flight off, and records each pair's
// observed/plain wall-clock and peak-RSS ratios (from the children's
// rusage). A ratio gates like ns/op: it fails past its pinned value by more
// than -tol.
//
// Each run appends to the BENCH_<n>.json history rather than overwriting,
// and rewrites BENCH_TREND.md, a markdown table of every pinned
// benchmark's ns/op and allocs/op across the recorded history.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obsdiff"
)

// pinnedBench is the default benchmark selection, chosen to cover the
// simulator's perf-critical layers: the figure pipelines (engine + memory
// system + generators), the cache layer (the coherent cache's ProbeTouch hit
// in the first and in the last way, its Allocate miss path, and the Figure
// 12/13 sweep fed data references and instruction-fetch runs), the
// local-hit fast path, and the snoop-heavy bus patterns the
// duplicate-tag filter exists for, and the loaded-latency hot path (curve
// lookup + utilization-window update) every bus transaction pays under
// -memmodel loaded, the trace recorder (a sampled-out and a ring-recorded
// event, both allocation-free, an event encoded and spilled into a -trace
// buffer, and the Chrome trace export that copies it out), the osmodel
// playback engine, the jvm heap's allocation and minor-GC paths, the fetch
// generator's NextRun, the cpu core's ExecInstr segment, and simrand's
// uniform and bounded draws.
const pinnedBench = "^(BenchmarkFig08C2CRatio|BenchmarkFig13DCacheMissRate|BenchmarkFig16SharedCaches|" +
	"BenchmarkProbeTouchHit|BenchmarkProbeTouchLRUWay|BenchmarkAllocateMissStream|BenchmarkSweepNineConfigs|BenchmarkSweepFetchRuns|" +
	"BenchmarkReadLocalHit|BenchmarkMigratoryWrite16Nodes|BenchmarkReadSharedGetS16Nodes|" +
	"BenchmarkHDRRecord|BenchmarkCurveLookup|BenchmarkLoadTrackerRecord|" +
	"BenchmarkTracerInstantSampledOut|BenchmarkTracerInstantRing|BenchmarkTracerInstantLinear|BenchmarkWriteChromeTrace|" +
	"BenchmarkEngineThroughput|BenchmarkAllocSmall|BenchmarkMinorGC|" +
	"BenchmarkNextRun|BenchmarkExecInstr|BenchmarkFloat64|BenchmarkIntn)$"

// E2E pseudo-benchmark keys: wall-clock timings of the figures binary.
const (
	e2eQuickKey = "e2e:FiguresQuick"
	e2eFullKey  = "e2e:FiguresFull"
)

// obsOverheadKey prefixes the observability-cost ratios; a full key is
// obsOverheadKey + "/" + pair + ".wall" or ".rss".
const obsOverheadKey = "e2e:ObsOverhead"

// obsPairs are the e2e:ObsOverhead measurements: one driver run plain and
// observed.
var obsPairs = []struct {
	name, driver    string
	plain, observed []string
}{
	{"ecperf", "ecperfsim",
		[]string{"-p", "15", "-memmodel", "loaded", "-measure", "72000000"},
		[]string{"-p", "15", "-memmodel", "loaded", "-measure", "72000000",
			"-trace", "trace.json", "-latency", "latency.json", "-attr", "attr.json", "-metrics", "metrics.txt"}},
	{"jbb-flight", "jbbsim", []string{"-flight", "off"}, nil},
}

// Result is one benchmark's summary, min across runs. For the e2e
// pseudo-benchmarks NsPerOp is the whole run's wall clock in nanoseconds;
// an e2e:ObsOverhead key records only Ratio, observed over plain.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp *uint64 `json:"allocs_per_op,omitempty"`
	Ratio       float64 `json:"ratio,omitempty"`
}

// value is the quantity the gate compares: the ratio when there is one,
// else ns/op.
func (r Result) value() float64 {
	if r.Ratio != 0 {
		return r.Ratio
	}
	return r.NsPerOp
}

// String renders the gated value at a human scale.
func (r Result) String() string {
	if r.Ratio != 0 {
		return fmt.Sprintf("%.3fx", r.Ratio)
	}
	return fmtNs(r.NsPerOp)
}

// Report is the BENCH_<n>.json document.
type Report struct {
	Note       string            `json:"note,omitempty"`
	Count      int               `json:"count"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\S+) ns/op(.*)$`)
var allocsField = regexp.MustCompile(`(\d+) allocs/op`)

func main() {
	bench := flag.String("bench", pinnedBench, "benchmark regex passed to go test -bench")
	pkgs := flag.String("pkgs", ".,./internal/cache,./internal/coherence,./internal/memsys,./internal/obs,./internal/osmodel,./internal/jvm,./internal/ifetch,./internal/cpu,./internal/simrand", "comma-separated packages to benchmark")
	count := flag.Int("count", 3, "runs per benchmark; the minimum is kept")
	tol := flag.Float64("tol", 0.30, "allowed fractional ns/op (and wall-clock) regression vs baseline")
	allocTol := flag.Float64("alloc-tol", 0.10, "allowed fractional allocs/op regression vs baseline")
	out := flag.String("out", "", "result file to write (default: next unused BENCH_<n>.json)")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file to gate against")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	note := flag.String("note", "", "free-form note recorded in the result file")
	e2e := flag.Bool("e2e", true, "measure figures -quick end-to-end wall clock and the observability-overhead ratios")
	e2eCount := flag.Int("e2e-count", 2, "end-to-end runs per configuration; the minimum is kept")
	full := flag.Bool("full", false, "also measure the full-fidelity figures run (slow; nightly/manual)")
	trend := flag.String("trend", "BENCH_TREND.md", "markdown trend table to (re)write; empty disables")
	flag.Parse()

	rep := Report{Note: *note, Count: *count, Benchmarks: map[string]Result{}}
	for _, pkg := range strings.Split(*pkgs, ",") {
		pkg = strings.TrimSpace(pkg)
		if pkg == "" {
			continue
		}
		if err := runPkg(pkg, *bench, *count, rep.Benchmarks); err != nil {
			fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
			os.Exit(1)
		}
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "perfcheck: no benchmarks matched")
		os.Exit(1)
	}

	if *e2e {
		if err := runE2E(&rep, *e2eCount, *full); err != nil {
			fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
			os.Exit(1)
		}
	}

	outPath := *out
	if outPath == "" {
		outPath = nextBenchPath()
	}
	writeJSON(outPath, rep)
	fmt.Printf("wrote %s (%d benchmarks, min of %d runs)\n", outPath, len(rep.Benchmarks), *count)

	if *trend != "" {
		if err := writeTrend(*trend, *baselinePath, outPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfcheck: trend table: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *trend)
	}

	if *update {
		writeJSON(*baselinePath, rep)
		fmt.Printf("baseline %s updated\n", *baselinePath)
		// Regenerate the trend so its baseline column reflects the pin
		// that was just written, not the one it replaced.
		if *trend != "" {
			if err := writeTrend(*trend, *baselinePath, outPath, rep); err != nil {
				fmt.Fprintf(os.Stderr, "perfcheck: trend table: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	base, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: no baseline (%v); run with -update to create one\n", err)
		os.Exit(1)
	}
	var baseRep Report
	if err := json.Unmarshal(base, &baseRep); err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: bad baseline: %v\n", err)
		os.Exit(1)
	}

	failed := false
	for _, b := range sortedKeys(baseRep.Benchmarks) {
		cur, ok := rep.Benchmarks[b]
		if !ok {
			// The e2e measurements are opt-out (-e2e=false) or opt-in
			// (-full), so their absence from a run is a configuration, not
			// a lost benchmark.
			if strings.HasPrefix(b, "e2e:") {
				fmt.Printf("skip %-40s not measured this run\n", b)
				continue
			}
			fmt.Printf("FAIL %-40s in baseline but not in this run\n", b)
			failed = true
			continue
		}
		bl := baseRep.Benchmarks[b]
		ratio := cur.value() / bl.value()
		status := "ok  "
		if ratio > 1+*tol {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-40s %12s  baseline %12s  (%+.1f%%)\n",
			status, b, cur, bl, (ratio-1)*100)
		if bl.AllocsPerOp != nil && cur.AllocsPerOp != nil {
			limit := allocLimit(*bl.AllocsPerOp, *allocTol)
			st := "ok  "
			if *cur.AllocsPerOp > limit {
				st = "FAIL"
				failed = true
			}
			fmt.Printf("%s %-40s %12d allocs/op  baseline %12d (limit %d)\n",
				st, b, *cur.AllocsPerOp, *bl.AllocsPerOp, limit)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "perfcheck: regression beyond tolerance (ns/op %.0f%%, allocs/op %.0f%%)\n",
			*tol*100, *allocTol*100)
		emitTriage(*baselinePath, outPath)
		os.Exit(1)
	}
}

// allocLimit is the most allocs/op a benchmark may report against its
// baseline. Allocation counts are near-deterministic, so they get a tighter
// relative tolerance plus a small absolute slack (tiny counts jitter by a
// few allocations of runtime noise) — except that an allocation-free
// baseline must stay allocation-free, so a hot path that starts allocating
// per operation fails the gate.
func allocLimit(base uint64, tol float64) uint64 {
	if base == 0 {
		return 0
	}
	return uint64(float64(base)*(1+tol)) + 16
}

// emitTriage runs the obsdiff engine over baseline-vs-current when the gate
// fails, so a red CI run carries its own ranked triage (PERF_TRIAGE.md)
// instead of just an exit code. Triage is best-effort: a diff failure never
// masks the gate failure.
func emitTriage(baselinePath, outPath string) {
	rep, err := obsdiff.DiffFiles(baselinePath, outPath, obsdiff.Options{Top: 25})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: triage diff failed: %v\n", err)
		return
	}
	if err := obs.AtomicWriteFile("PERF_TRIAGE.md", rep.Markdown()); err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: triage write failed: %v\n", err)
		return
	}
	fmt.Fprintln(os.Stderr, "perfcheck: wrote PERF_TRIAGE.md; top regressions:")
	for i, d := range rep.Deltas[:min(5, len(rep.Deltas))] {
		fmt.Fprintf(os.Stderr, "  %d. %-40s %+.1f%%\n", i+1, d.Key, d.Rel*100)
	}
}

// nextBenchPath returns the first unused BENCH_<n>.json name, so every run
// extends the recorded history instead of overwriting the last result.
func nextBenchPath() string {
	for n := 1; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

// runE2E builds the drivers once and times them end to end: figures
// -quick always, the full-fidelity run when full is set, and the
// e2e:ObsOverhead pairs. Minimum of e2eCount runs, figures recorded in
// wall-clock nanoseconds under the e2e: pseudo-benchmark keys. Every run
// starts in a scratch directory, so artifacts and flight-recorder dumps
// land there.
func runE2E(rep *Report, e2eCount int, full bool) error {
	dir, err := os.MkdirTemp("", "perfcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, name := range []string{"figures", "ecperfsim", "jbbsim"} {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building %s: %w", name, err)
		}
	}

	measure := func(key string, args ...string) error {
		best := 0.0
		for i := 0; i < e2eCount; i++ {
			secs, _, err := runTimed(dir, "figures", args)
			if err != nil {
				return err
			}
			if i == 0 || secs < best {
				best = secs
			}
		}
		rep.Benchmarks[key] = Result{NsPerOp: best * 1e9}
		fmt.Printf("%s: %.2fs (min of %d)\n", key, best, e2eCount)
		return nil
	}

	if err := measure(e2eQuickKey, "-quick"); err != nil {
		return err
	}
	if full {
		if err := measure(e2eFullKey); err != nil {
			return err
		}
	}
	return measureObsOverhead(rep, dir, e2eCount)
}

// measureObsOverhead runs each obsPairs entry e2eCount times, plain and
// observed alternately so host drift hits both alike, and records the
// ratios of the observed run's minimum wall clock and peak RSS to the
// plain run's.
func measureObsOverhead(rep *Report, dir string, e2eCount int) error {
	for _, p := range obsPairs {
		var wall, rss [2]float64 // plain, observed
		for i := 0; i < e2eCount; i++ {
			for j, args := range [][]string{p.plain, p.observed} {
				secs, kb, err := runTimed(dir, p.driver, args)
				if err != nil {
					return err
				}
				if i == 0 || secs < wall[j] {
					wall[j] = secs
				}
				if i == 0 || kb < rss[j] {
					rss[j] = kb
				}
			}
		}
		key := obsOverheadKey + "/" + p.name
		rep.Benchmarks[key+".wall"] = Result{Ratio: wall[1] / wall[0]}
		rep.Benchmarks[key+".rss"] = Result{Ratio: rss[1] / rss[0]}
		fmt.Printf("%s: wall %.2fs / %.2fs = %.3fx, peak RSS %.0f / %.0f MB = %.3fx (min of %d)\n",
			key, wall[1], wall[0], wall[1]/wall[0], rss[1]/1024, rss[0]/1024, rss[1]/rss[0], e2eCount)
	}
	return nil
}

// runTimed runs the named binary from dir, in dir, discarding its output,
// and returns its wall clock in seconds and its peak RSS as its rusage
// reports it (kilobytes on Linux; only ratios of it are recorded).
func runTimed(dir, name string, args []string) (float64, float64, error) {
	cmd := exec.Command(filepath.Join(dir, name), args...)
	cmd.Dir = dir
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, 0, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	secs := time.Since(start).Seconds()
	var kb float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		kb = float64(ru.Maxrss)
	}
	return secs, kb, nil
}

// trendFile is one BENCH_*.json in the recorded history.
type trendFile struct {
	label string
	rep   Report
}

// writeTrend rewrites the markdown trend table from the baseline, every
// numbered BENCH_<n>.json on disk, and the current run (which is already
// among the numbered files unless -out pointed elsewhere).
func writeTrend(path, baselinePath, outPath string, cur Report) error {
	var files []trendFile
	if rep, err := readReport(baselinePath); err == nil {
		files = append(files, trendFile{"baseline", rep})
	}
	names, _ := filepath.Glob("BENCH_*.json")
	var nums []int
	byNum := map[int]string{}
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(name), "BENCH_%d.json", &n); err == nil {
			nums = append(nums, n)
			byNum[n] = name
		}
	}
	sort.Ints(nums)
	seenCur := false
	for _, n := range nums {
		rep, err := readReport(byNum[n])
		if err != nil {
			continue
		}
		files = append(files, trendFile{strconv.Itoa(n), rep})
		seenCur = seenCur || byNum[n] == outPath
	}
	if !seenCur {
		files = append(files, trendFile{"current", cur})
	}

	// Row set: every benchmark that appears anywhere in the history.
	rows := map[string]bool{}
	for _, f := range files {
		for k := range f.rep.Benchmarks {
			rows[k] = true
		}
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var b strings.Builder
	b.WriteString("# Host-performance trend\n\n")
	b.WriteString("Min-of-count results per pinned benchmark across the recorded\n")
	b.WriteString("BENCH_*.json history (oldest first). Cells are time/op with\n")
	b.WriteString("allocs/op in parentheses where recorded; `e2e:` rows are whole\n")
	b.WriteString("figures-binary wall-clock runs, and `e2e:ObsOverhead` rows observed/plain\n")
	b.WriteString("driver ratios. Regenerated by `go run ./cmd/perfcheck`.\n\n")
	b.WriteString("| benchmark |")
	for _, f := range files {
		fmt.Fprintf(&b, " %s |", f.label)
	}
	b.WriteString("\n|---|")
	for range files {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "| %s |", k)
		for _, f := range files {
			r, ok := f.rep.Benchmarks[k]
			switch {
			case !ok:
				b.WriteString(" — |")
			case r.AllocsPerOp != nil:
				fmt.Fprintf(&b, " %s (%d) |", r, *r.AllocsPerOp)
			default:
				fmt.Fprintf(&b, " %s |", r)
			}
		}
		b.WriteString("\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// fmtNs renders a nanosecond quantity at a human scale.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.1fns", ns)
	}
}

func readReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

func sortedKeys(m map[string]Result) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func runPkg(pkg, bench string, count int, into map[string]Result) error {
	args := []string{"test", "-run", "^$", "-bench", bench,
		"-count", strconv.Itoa(count), "-benchmem", pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	for _, line := range strings.Split(string(outBytes), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		key := pkg + ":" + m[1]
		r, seen := into[key]
		if !seen || ns < r.NsPerOp {
			r.NsPerOp = ns
		}
		if am := allocsField.FindStringSubmatch(m[3]); am != nil {
			if a, err := strconv.ParseUint(am[1], 10, 64); err == nil {
				if r.AllocsPerOp == nil || a < *r.AllocsPerOp {
					r.AllocsPerOp = &a
				}
			}
		}
		into[key] = r
	}
	return nil
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
		os.Exit(1)
	}
}
