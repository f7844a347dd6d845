// Command bench is the repository benchmark. It runs the simulator on four
// workloads, each rep in a fresh child process, and reports end-to-end host
// metrics (wall and CPU time, set-up time, simulated instructions per host
// second, host ns per simulated memory reference, memory) plus a per-layer
// split of host time and the simulated per-layer statistics. See README.md.
//
// Usage:
//
//	bench [-seed N] [-pin]                  all workloads: 5 timed + 2 traced reps each
//	bench -workload W -seconds S -trace 0|1 one workload, reps for S seconds
//	bench -compare A.json B.json            compare two suite results
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// defaultSeed is the default seed of the cmd/ simulation drivers; seed 1 is
// held out for claims.
const defaultSeed = 20030208

const (
	goldenPath = "golden.json"
	// Suite reps per workload: timed reps run round-robin across workloads
	// so machine drift hits all alike; traced reps follow.
	timedReps  = 5
	tracedReps = 2
	// repTimeout kills a child that hangs.
	repTimeout = 90 * time.Second
	// hostCPUs is the GOMAXPROCS every child runs with.
	hostCPUs = 2
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fset := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fset.String("workload", "", "measure only this workload, for -seconds (empty: run the suite)")
	seed := fset.Uint64("seed", defaultSeed, "workload seed")
	seconds := fset.Float64("seconds", 24, "with -workload: how long to run reps")
	trace := fset.Int("trace", 0, "with -workload: 1 interleaves profiled reps and reports the per-layer metrics")
	cmp := fset.Bool("compare", false, "compare two results.json files: -compare A.json B.json")
	pin := fset.Bool("pin", false, "record this seed's fingerprints in golden.json")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *cmp {
		return compareMain(spec, fset.Args(), stdout)
	}
	r, err := newRunner(spec, *seed, false, "out")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *name != "" {
		w, err := lookup(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return r.single(w, *seconds, *trace == 1, stdout)
	}
	return r.suite(*pin, stdout)
}

func compareMain(spec *benchSpec, files []string, stdout io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs two results files")
		return 2
	}
	a, err := readResults(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := readResults(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	compare(spec, a, b, stdout)
	return 0
}

// runner starts reps as child processes of this binary.
type runner struct {
	spec  *benchSpec
	exe   string
	seed  uint64
	short bool
	// out receives results, profiles and span traces; reps keep their
	// temporary files under out/tmp.
	out string
	// golden holds the pinned fingerprint per workload for this seed; it
	// is empty for unpinned seeds and for shortened runs.
	golden map[string]string
}

func newRunner(spec *benchSpec, seed uint64, short bool, out string) (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if out, err = filepath.Abs(out); err != nil {
		return nil, err
	}
	for _, dir := range []string{"prof", "tmp"} {
		if err := os.MkdirAll(filepath.Join(out, dir), 0o755); err != nil {
			return nil, err
		}
	}
	r := &runner{spec: spec, exe: exe, seed: seed, short: short, out: out}
	if !short {
		all, err := readGolden()
		if err != nil {
			return nil, err
		}
		r.golden = all[strconv.FormatUint(seed, 10)]
	}
	return r, nil
}

// readGolden reads golden.json: seed → workload → fingerprint.
func readGolden() (map[string]map[string]string, error) {
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	all := map[string]map[string]string{}
	if err := json.Unmarshal(buf, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return all, nil
}

// rep is one child run as the parent sees it.
type rep struct {
	*repResult
	wallS, cpuS, rssMB float64
	// prof is the CPU profile a traced rep wrote; "" for an untraced rep.
	prof string
	err  error
}

// rep runs one rep of w in a child process; a non-empty prof makes it a
// traced rep that writes a CPU profile there.
func (r *runner) rep(w workload, prof string) rep {
	args := []string{"-child", w.name, "-seed", strconv.FormatUint(r.seed, 10)}
	if r.short {
		args = append(args, "-short")
	}
	if prof != "" {
		args = append(args, "-cpuprofile", prof)
	}
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(hostCPUs), "TMPDIR="+filepath.Join(r.out, "tmp"))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	err := cmd.Run()
	p := rep{wallS: time.Since(start).Seconds(), prof: prof}
	if err != nil {
		p.err = fmt.Errorf("%s rep: %w", w.name, err)
		return p
	}
	p.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	p.repResult = &repResult{}
	if err := json.Unmarshal(out.Bytes(), p.repResult); err != nil {
		p.err = fmt.Errorf("%s rep output: %w", w.name, err)
	}
	return p
}

// runs collects the reps of one workload.
type runs struct {
	w    workload
	reps []rep
}

// add records a rep, failing it when its simulated output differs from the
// golden fingerprint or from the workload's first good rep.
func (rs *runs) add(p rep, golden string) {
	if p.err == nil {
		if golden != "" && p.Fingerprint != golden {
			p.err = fmt.Errorf("%s: fingerprint %s, golden.json pins %s", rs.w.name, p.Fingerprint, golden)
		} else if first := rs.good(); len(first) > 0 && !sameOutput(first[0], p) {
			p.err = fmt.Errorf("%s: rep differs from the first (fingerprint %s vs %s)", rs.w.name, p.Fingerprint, first[0].Fingerprint)
		}
	}
	if p.err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAIL", p.err)
	}
	rs.reps = append(rs.reps, p)
}

func sameOutput(a, b rep) bool {
	if a.Fingerprint != b.Fingerprint || len(a.Counts) != len(b.Counts) {
		return false
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			return false
		}
	}
	return true
}

func (rs *runs) good() []rep {
	var g []rep
	for _, p := range rs.reps {
		if p.err == nil {
			g = append(g, p)
		}
	}
	return g
}

func (rs *runs) failed() int { return len(rs.reps) - len(rs.good()) }

// values gathers one number per good rep, traced or untraced.
func (rs *runs) values(traced bool, f func(rep) float64) []float64 {
	var v []float64
	for _, p := range rs.good() {
		if (p.prof != "") == traced {
			v = append(v, f(p))
		}
	}
	return v
}

// endToEnd summarizes the end-to-end metrics over the untraced reps.
func (rs *runs) endToEnd() map[string][]float64 {
	v := func(f func(rep) float64) []float64 { return rs.values(false, f) }
	return map[string][]float64{
		"wall_s":           v(func(p rep) float64 { return p.wallS }),
		"setup_s":          v(func(p rep) float64 { return p.SetupS }),
		"cpu_s":            v(func(p rep) float64 { return p.cpuS }),
		"sim_minstr_per_s": v(func(p rep) float64 { return float64(p.Instructions) / p.RunS / 1e6 }),
		"host_ns_per_ref":  v(func(p rep) float64 { return p.RunS * 1e9 / float64(p.Refs) }),
		"peak_rss_mb":      v(func(p rep) float64 { return p.rssMB }),
		"host_alloc_mb":    v(func(p rep) float64 { return p.AllocMB }),
	}
}

// perLayer computes the per-layer metrics: the host-time split folded from
// the traced reps' profiles, tracing overhead, the simulated statistics,
// and the bench's own host-side measures.
func (rs *runs) perLayer(topPath string) (map[string][]float64, error) {
	good := rs.good()
	var profiles []string
	for _, p := range good {
		if p.prof != "" {
			profiles = append(profiles, p.prof)
		}
	}
	untracedWall := rs.values(false, func(p rep) float64 { return p.wallS })
	if len(profiles) == 0 || len(untracedWall) == 0 {
		return nil, errors.New("per-layer metrics need traced and untraced reps")
	}
	byLayer, total, err := foldProfiles(topPath, profiles)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, errors.New("the profiles hold no samples")
	}
	one := func(x float64) []float64 { return []float64{x} }
	median := func(v []float64) float64 { return summarize(v, "").Median }
	runS := median(rs.values(true, func(p rep) float64 { return p.RunS }))
	tracedWall := median(rs.values(true, func(p rep) float64 { return p.wallS }))
	refs := float64(good[0].Refs)
	m := map[string][]float64{
		"other.host_pct":       one(100 * byLayer["other"].Seconds() / total.Seconds()),
		"profile.samples":      one(total.Seconds() * sampleRate),
		"profile.overhead_pct": one(100 * (tracedWall/median(untracedWall) - 1)),
		"obs.artifact_write_s": rs.values(false, func(p rep) float64 { return p.ArtifactS }),
		"obs.artifact_mb":      rs.values(false, func(p rep) float64 { return p.ArtifactMB }),
		"core.worker_util":     rs.values(false, func(p rep) float64 { return p.cpuS / (p.wallS * hostCPUs) }),
	}
	for _, l := range layers {
		share := byLayer[l].Seconds() / total.Seconds()
		m[l+".host_pct"] = one(100 * share)
		m[l+".host_ns_per_ref"] = one(share * runS * 1e9 / refs)
	}
	for k, v := range good[0].Counts {
		m[k] = one(v)
	}
	return m, nil
}

// declared summarizes values against the metrics BENCHMARK.json declares,
// which must be exactly the ones computed.
func declared(specs []metricSpec, values map[string][]float64) (map[string]summary, error) {
	out := map[string]summary{}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok || len(v) == 0 {
			return nil, fmt.Errorf("metric %s declared but not measured", s.Name)
		}
		out[s.Name] = summarize(v, s.Unit)
	}
	for k := range values {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %s measured but not declared in BENCHMARK.json", k)
		}
	}
	return out, nil
}

// profilePath is where traced rep i of w writes its CPU profile.
func (r *runner) profilePath(w workload, i int) string {
	return filepath.Join(r.out, "prof", fmt.Sprintf("%s-%d.pprof", w.name, i))
}

// single runs reps of one workload for about seconds and prints its metrics,
// ending with the one-line JSON result. With traced set, every other rep is
// profiled and the per-layer metrics are reported instead of the end-to-end
// ones.
func (r *runner) single(w workload, seconds float64, traced bool, stdout io.Writer) int {
	rs := &runs{w: w}
	minReps := 3
	if traced {
		minReps = 4
	}
	start := time.Now()
	for i := 0; ; i++ {
		prof := ""
		if traced && i%2 == 1 {
			prof = r.profilePath(w, i)
		}
		rs.add(r.rep(w, prof), r.golden[w.name])
		if rs.failed() > 0 {
			break
		}
		elapsed := time.Since(start).Seconds()
		if n := i + 1; n >= minReps && elapsed*float64(n+1)/float64(n) > seconds {
			break
		}
	}

	metrics, err := r.metrics(rs, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printMetrics(stdout, w.name, metrics)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rs.failed() == 0, len(rs.reps), rs.failed(), map[string]value{}}
	for k, s := range metrics {
		line.Metrics[k] = value{s.Median, s.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return 0
}

// metrics summarizes a workload's reps: the end-to-end metrics, or with
// traced the per-layer ones, whose spans also go to out/<workload>.trace.json.
func (r *runner) metrics(rs *runs, traced bool) (map[string]summary, error) {
	if len(rs.good()) == 0 {
		return nil, fmt.Errorf("%s: every rep failed", rs.w.name)
	}
	if !traced {
		return declared(r.spec.EndToEnd, rs.endToEnd())
	}
	if err := writeSpans(filepath.Join(r.out, rs.w.name+".trace.json"), rs); err != nil {
		return nil, err
	}
	values, err := rs.perLayer(filepath.Join(r.out, rs.w.name+".files.txt"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rs.w.name, err)
	}
	return declared(r.spec.PerLayer, values)
}

// suite runs every workload: timed reps round-robin, then traced reps,
// and writes out/results.json. It fails when any rep fails or when the two
// ECperf workloads, which simulate the same machine, disagree.
func (r *runner) suite(pin bool, stdout io.Writer) int {
	all := make([]*runs, len(workloads))
	for i, w := range workloads {
		all[i] = &runs{w: w}
	}
	for i := 0; i < timedReps+tracedReps; i++ {
		for _, rs := range all {
			prof := ""
			if i >= timedReps {
				prof = r.profilePath(rs.w, i)
			}
			fmt.Fprintf(os.Stderr, "bench: %s rep %d/%d\n", rs.w.name, i+1, timedReps+tracedReps)
			rs.add(r.rep(rs.w, prof), r.golden[rs.w.name])
		}
	}

	res := results{Seed: r.seed, Workloads: map[string]workloadResults{}}
	ok := true
	for _, rs := range all {
		wr := workloadResults{Attempted: len(rs.reps), Failed: rs.failed(), Metrics: map[string]summary{}}
		for _, traced := range []bool{false, true} {
			m, err := r.metrics(rs, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			for k, v := range m {
				wr.Metrics[k] = v
			}
		}
		if good := rs.good(); len(good) > 0 {
			wr.Fingerprint = good[0].Fingerprint
		}
		ok = ok && wr.Failed == 0
		printMetrics(stdout, rs.w.name, wr.Metrics)
		fmt.Fprintf(stdout, "%s attempted %d failed %d fingerprint %s\n", rs.w.name, wr.Attempted, wr.Failed, wr.Fingerprint)
		res.Workloads[rs.w.name] = wr
	}
	if a, b := res.Workloads["ecperf-15p-loaded"].Fingerprint, res.Workloads["ecperf-15p-obs"].Fingerprint; a != b {
		fmt.Fprintf(os.Stderr, "bench: FAIL observability is not passive: ecperf-15p-loaded %s, ecperf-15p-obs %s\n", a, b)
		ok = false
	}
	if err := writeJSON(filepath.Join(r.out, "results.json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	if pin {
		if err := r.pin(res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// pin records the suite's fingerprints for its seed in golden.json.
func (r *runner) pin(res results) error {
	all, err := readGolden()
	if err != nil {
		return err
	}
	fps := map[string]string{}
	for name, wr := range res.Workloads {
		fps[name] = wr.Fingerprint
	}
	all[strconv.FormatUint(r.seed, 10)] = fps
	return writeJSON(goldenPath, all)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printMetrics prints one "workload metric value unit" line per metric,
// with quartiles and rep count.
func printMetrics(w io.Writer, workload string, m map[string]summary) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		s := m[k]
		fmt.Fprintf(w, "%s %s %.6g %s q1=%.6g q3=%.6g n=%d\n", workload, k, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
}

// writeSpans writes the bench's spans of every rep as Chrome trace JSON,
// one track per rep, times relative to the first rep's start.
func writeSpans(path string, rs *runs) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	var origin int64
	for i, p := range rs.reps {
		if p.repResult == nil {
			continue
		}
		for _, s := range p.Spans {
			if origin == 0 || s.Start < origin {
				origin = s.Start
			}
			events = append(events, event{Name: s.Name, Ph: "X", Ts: s.Start, Dur: s.Dur, Pid: 1, Tid: i,
				Args: map[string]any{"workload": rs.w.name, "traced": p.prof != ""}})
		}
	}
	for i := range events {
		events[i].Ts -= origin
	}
	return writeJSON(path, events)
}
