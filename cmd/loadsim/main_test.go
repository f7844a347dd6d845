package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/drivertest"
	"repro/internal/obs/reqtrace"
)

func parseArgs(t *testing.T, args ...string) *appFlags {
	t.Helper()
	fs := flag.NewFlagSet("loadsim", flag.ContinueOnError)
	af := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return af
}

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag and the driver's own flags must all be
// registered.
func TestFlagParity(t *testing.T) {
	drivertest.FlagParity(t, registerFlags,
		"nodes", "workers", "shards", "queue-cap", "clients", "lb",
		"arrival", "sweep", "controls", "faults", "report", "offered",
		"deadline-ms", "think-ms", "seed", "horizon")
}

// TestUnknownLBPolicy: -lb takes rr or least; any other name fails the run
// with an error naming both.
func TestUnknownLBPolicy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-lb", "weighted", "-horizon", "1000000", "-flight", "off"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("-lb weighted exited 0; stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "rr|least") {
		t.Fatalf("-lb weighted error does not name rr|least: %q", stderr.String())
	}
}

func TestParseSweep(t *testing.T) {
	mults, err := parseSweep("0.3, 1,3", 1)
	if err != nil || len(mults) != 3 || mults[0] != 0.3 || mults[2] != 3 {
		t.Fatalf("parseSweep = %v, %v", mults, err)
	}
	if mults, err = parseSweep("", 2.5); err != nil || len(mults) != 1 || mults[0] != 2.5 {
		t.Fatalf("empty sweep did not fall back to -offered: %v, %v", mults, err)
	}
	for _, bad := range []string{"0.3,x", "0", "-1,2"} {
		if _, err := parseSweep(bad, 1); err == nil {
			t.Errorf("sweep %q accepted", bad)
		}
	}
}

func TestLoadFaultsBuiltins(t *testing.T) {
	if s, err := loadFaults("", 100); s != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", s, err)
	}
	s, err := loadFaults("demo", 250_000_000)
	if err != nil || len(s.Events) == 0 {
		t.Fatalf("demo: %v, %v", s, err)
	}
	s, err = loadFaults("crash", 250_000_000)
	if err != nil || len(s.Events) != 1 || s.Events[0].Peer != cluster.NodePeer(0) {
		t.Fatalf("crash: %+v, %v", s, err)
	}
}

func plainColl() *reqtrace.Collector {
	return reqtrace.NewCollector(reqtrace.Options{})
}

// TestSweepDeterministic: the full sweep — table bytes, figure, and notes —
// is a pure function of the seed, including under a fault schedule.
func TestSweepDeterministic(t *testing.T) {
	af := parseArgs(t)
	cfg, err := buildConfig(af)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 40_000_000
	sched, err := loadFaults("crash", horizon)
	if err != nil {
		t.Fatal(err)
	}
	mults := []float64{0.5, 3}
	run := func() (string, []string) {
		var buf bytes.Buffer
		pts, err := runSweep(&buf, cfg, mults, []bool{true, false}, 7, horizon, sched, plainColl, live{})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), buildFigure(pts, mults).Notes
	}
	tab1, notes1 := run()
	tab2, notes2 := run()
	if tab1 != tab2 {
		t.Fatalf("sweep table not deterministic:\n%s\nvs\n%s", tab1, tab2)
	}
	if strings.Join(notes1, "\n") != strings.Join(notes2, "\n") {
		t.Fatalf("figure notes not deterministic: %v vs %v", notes1, notes2)
	}
	if len(notes1) == 0 {
		t.Fatal("sweep produced no headline notes")
	}
}

// TestArrivalOffPassivity: with -arrival off the driver runs the plain
// closed-loop cluster model — its stats are bit-identical to a directly
// built closed-loop sim, and the -offered multiplier has no effect. The
// open-arrival machinery must be completely inert.
func TestArrivalOffPassivity(t *testing.T) {
	af := parseArgs(t, "-arrival", "off")
	cfg, err := buildConfig(af)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ClosedClients != *af.clients {
		t.Fatalf("closed-loop population %d, want %d", cfg.ClosedClients, *af.clients)
	}
	const horizon = 100_000_000
	p1, err := runPoint(cfg, 1, true, 11, horizon, nil, plainColl, live{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := runPoint(cfg, 3, true, 11, horizon, nil, plainColl, live{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.stats != p3.stats {
		t.Fatalf("-offered leaked into a closed-loop run:\n%+v\n%+v", p1.stats, p3.stats)
	}

	// Ground truth: the seed closed-loop model, built without the driver.
	direct := cluster.DefaultOpenConfig()
	direct.ClosedClients = cfg.ClosedClients
	direct.ThinkCycles = cfg.ThinkCycles
	s, err := cluster.NewOpen(direct, 11)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(horizon)
	if p1.stats != s.Stats {
		t.Fatalf("driver closed-loop run diverged from the direct model:\n%+v\n%+v", p1.stats, s.Stats)
	}
}

// TestBuildConfigFlash: the flash pattern gets its spike anchored inside
// the horizon.
func TestBuildConfigFlash(t *testing.T) {
	af := parseArgs(t, "-arrival", "flash")
	cfg, err := buildConfig(af)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arrival.FlashAt == 0 || cfg.Arrival.FlashAt >= *af.horizon {
		t.Fatalf("flash spike at %d outside horizon %d", cfg.Arrival.FlashAt, *af.horizon)
	}
}

// TestStdoutPassivity: the sweep table is byte-identical whatever
// observability is attached (the artifact flags are inert here).
func TestStdoutPassivity(t *testing.T) {
	horizon := "10000000"
	if !testing.Short() {
		horizon = "40000000"
	}
	drivertest.StdoutPassivity(t, run, nil, "-sweep", "0.5,3", "-controls", "both", "-horizon", horizon)
}

// TestBadFlagsPrintNothing: every flag is validated before the first line
// is printed, so a bad value ends the run with exit code 1, an error on
// stderr and an empty stdout.
func TestBadFlagsPrintNothing(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "NaN,1"},
		{"-sweep", "1,+Inf"},
		{"-offered", "NaN"},
		{"-offered", "-2"},
		{"-offered", "1e12"}, // an arrival rate past one per cycle
		{"-arrival", "off", "-think-ms", "-1"},
		{"-deadline-ms", "-1"},
		{"-deadline-ms", "NaN"},
		{"-queue-cap", "0"},
		{"-nodes", "0"},
		{"-horizon", "0"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-horizon", "1000000", "-flight", "off"}, args...), &stdout, &stderr)
		if code != 1 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1, an empty stdout and an error",
				strings.Join(args, " "), code, stdout.String(), stderr.String())
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestArrivalGolden pins the sweep's stdout for each arrival pattern, so a
// change to an arrival process or its shape constants that moves any
// offered, shed or latency figure shows.
func TestArrivalGolden(t *testing.T) {
	for _, pat := range []string{"poisson", "bursty", "diurnal", "flash"} {
		t.Run(pat, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-arrival", pat, "-sweep", "0.5,3", "-controls", "both", "-horizon", "20000000", "-flight", "off"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			drivertest.Golden(t, filepath.Join("testdata", "arrival-"+pat+".golden"), stdout.Bytes(), *updateGolden)
		})
	}
}

// TestScenarios runs the driver end to end at full size, under the race
// detector when go test has -race: a sweep of both control settings past
// saturation, and a flash crowd across a node crash with SLO evaluation.
// drivertest.Run checks that each run exits 0, its JSON artifacts parse and
// it leaves no spill or temporary file; each must also write its -report.
func TestScenarios(t *testing.T) {
	for _, tc := range []struct {
		name, report string
		args         []string
	}{
		{"sweep", "loadsim-sweep.md", []string{"-sweep", "0.3,1,3", "-controls", "both",
			"-horizon", "60000000"}},
		{"flash-crash", "loadsim-flash.md", []string{"-arrival", "flash", "-faults", "crash",
			"-horizon", "100000000", "-slo", "p99<=25ms", "-latency", "loadsim-flash-latency.json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drivertest.Run(t, run, append(tc.args, "-report", tc.report)...)
			if fi, err := os.Stat(tc.report); err != nil || fi.Size() == 0 {
				t.Errorf("-report %s not written (%v)", tc.report, err)
			}
		})
	}
}

// FuzzParseSweep: every multiplier list parseSweep accepts, from -sweep or
// its -offered fallback, is non-empty, finite and positive.
func FuzzParseSweep(f *testing.F) {
	for _, s := range []string{"0.3,1,3", "", "NaN,1", "1,+Inf", "-1", "0", " 2 , 4 ", "1e308,1e309", ",", "0x1p-3"} {
		f.Add(s, 1.0)
	}
	f.Add("", math.NaN())
	f.Add("", math.Inf(1))
	f.Add("", -1.0)
	f.Fuzz(func(t *testing.T, spec string, offered float64) {
		mults, err := parseSweep(spec, offered)
		if err != nil {
			return
		}
		if len(mults) == 0 {
			t.Fatalf("parseSweep(%q, %v) accepted an empty list", spec, offered)
		}
		for _, v := range mults {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("parseSweep(%q, %v) accepted multiplier %v", spec, offered, v)
			}
		}
	})
}
