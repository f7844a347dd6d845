package core

import (
	"fmt"

	"repro/internal/stats"
)

// CommOpts size the communication-behavior experiments (Figures 10/14/15).
type CommOpts struct {
	Processors    int
	Seed          uint64
	WarmupCycles  uint64
	MeasureCycles uint64
	// TimelineBin is the Figure 10 sampling interval in cycles (the paper
	// used 100 ms of wall time; the simulated equivalent is scaled).
	TimelineBin uint64
}

// DefaultCommOpts is the full-fidelity configuration.
func DefaultCommOpts() CommOpts {
	return CommOpts{
		Processors:    8,
		Seed:          20030208,
		WarmupCycles:  12_000_000,
		MeasureCycles: 60_000_000,
		TimelineBin:   1_000_000,
	}
}

// QuickCommOpts is the reduced test/bench configuration.
func QuickCommOpts() CommOpts {
	return CommOpts{
		Processors:    8,
		Seed:          20030208,
		WarmupCycles:  4_000_000,
		MeasureCycles: 20_000_000,
		TimelineBin:   1_000_000,
	}
}

// CommProfile is one workload's measured communication behavior.
type CommProfile struct {
	Kind Kind
	// Dist is the per-line cache-to-cache transfer distribution.
	Dist *stats.ShareDist
	// TopLineShare is the hottest single line's share of all transfers
	// (§5.2: 20% for SPECjbb, 14% for ECperf).
	TopLineShare float64
	// Top01PctShare is the share of the hottest 0.1% of touched lines
	// (§5.2: >70% for SPECjbb, 56% for ECperf).
	Top01PctShare float64
	// LinesTouched and LinesTransferring size the footprints.
	LinesTouched      int
	LinesTransferring int
	// Timeline is the C2C-per-bin series (Figure 10), and GCCount the
	// collections inside the window.
	Timeline []float64
	GCCount  uint64
}

// RunCommProfile measures one workload's communication profile on an
// 8-processor run with per-line profiling and the transfer timeline
// enabled.
func RunCommProfile(kind Kind, o CommOpts) CommProfile {
	sys := BuildSystem(SystemParams{Kind: kind, Processors: o.Processors, Seed: o.Seed})
	bus := sys.Hier.Bus()
	bus.EnableProfile()
	bus.EnableTimeline(o.TimelineBin)
	measureBare(sys, o.WarmupCycles, o.MeasureCycles) // the reset restarts profile and timeline
	res := sys.Engine.Results()

	dist := bus.Profile()
	transferring := 0
	for _, c := range dist.SortedCounts() {
		if c > 0 {
			transferring++
		}
	}
	// The timeline bins are indexed by absolute simulated time; drop the
	// warm-up prefix so the series starts at the measurement window.
	bins := bus.Timeline().Bins()
	if skip := int(o.WarmupCycles / o.TimelineBin); skip < len(bins) {
		bins = bins[skip:]
	}
	return CommProfile{
		Kind:              kind,
		Dist:              dist,
		TopLineShare:      dist.TopShare(1),
		Top01PctShare:     dist.TopFractionShare(0.001),
		LinesTouched:      dist.Keys(),
		LinesTransferring: transferring,
		Timeline:          bins,
		GCCount:           res.GCCount,
	}
}

// ScheduleCommProfiles submits both workloads' communication profiles as
// cells; the pointees are filled by sched.Wait.
func ScheduleCommProfiles(sched *Scheduler, o CommOpts) (jbb, ec *CommProfile) {
	jbb, ec = new(CommProfile), new(CommProfile)
	sched.Submit(func() { *jbb = RunCommProfile(SPECjbb, o) })
	sched.Submit(func() { *ec = RunCommProfile(ECperf, o) })
	return jbb, ec
}

// Fig14C2CDistribution reproduces Figure 14: the cumulative fraction of
// cache-to-cache transfers versus the fraction of touched cache lines
// (hottest lines first).
func Fig14C2CDistribution(jbb, ec CommProfile) Figure {
	f := Figure{
		ID:     "Fig 14",
		Title:  "Distribution of Cache-to-Cache Transfers (64-byte lines)",
		XLabel: "Cache lines touched (%)",
		YLabel: "Cache-to-cache transfers (%)",
	}
	for _, p := range []CommProfile{ec, jbb} {
		s := Series{Label: p.Kind.String()}
		for _, pt := range p.Dist.CDF(100) {
			s.X = append(s.X, 100*pt.KeyFrac)
			s.Y = append(s.Y, 100*pt.EventShare)
			s.Err = append(s.Err, 0)
		}
		f.Series = append(f.Series, s)
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: hottest line %.1f%% of transfers; hottest 0.1%% of lines %.1f%%",
			p.Kind, 100*p.TopLineShare, 100*p.Top01PctShare))
	}
	return f
}

// Fig15C2CFootprint reproduces Figure 15: the same cumulative distribution
// against the absolute number of lines (semi-log x), exposing that ECperf's
// communication footprint is larger in absolute terms.
func Fig15C2CFootprint(jbb, ec CommProfile) Figure {
	f := Figure{
		ID:     "Fig 15",
		Title:  "Distribution of Cache-to-Cache Transfers vs. Memory Touched",
		XLabel: "Lines (64-byte), hottest first",
		YLabel: "Cache-to-cache transfers (%)",
		LogX:   true,
	}
	for _, p := range []CommProfile{ec, jbb} {
		s := Series{Label: p.Kind.String()}
		for k := 1; k <= p.LinesTouched; k *= 2 {
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, 100*p.Dist.TopShare(k))
			s.Err = append(s.Err, 0)
		}
		s.X = append(s.X, float64(p.LinesTouched))
		s.Y = append(s.Y, 100)
		s.Err = append(s.Err, 0)
		f.Series = append(f.Series, s)
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: %d lines touched, %d lines ever transferred",
			p.Kind, p.LinesTouched, p.LinesTransferring))
	}
	return f
}

// Fig10C2CTimeline reproduces Figure 10: cache-to-cache transfers per
// interval over time for SPECjbb, normalized to the peak bin — the rate
// collapses during each garbage collection.
func Fig10C2CTimeline(p CommProfile) Figure {
	f := Figure{
		ID:     "Fig 10",
		Title:  "Cache-to-Cache Transfers Per Interval Over Time (Normalized, SPECjbb)",
		XLabel: "Interval",
		YLabel: "Normalized transfer rate",
	}
	peak := 0.0
	for _, v := range p.Timeline {
		if v > peak {
			peak = v
		}
	}
	s := Series{Label: p.Kind.String()}
	for i, v := range p.Timeline {
		s.X = append(s.X, float64(i))
		y := 0.0
		if peak > 0 {
			y = v / peak
		}
		s.Y = append(s.Y, y)
		s.Err = append(s.Err, 0)
	}
	f.Series = append(f.Series, s)
	f.Notes = append(f.Notes, fmt.Sprintf("%d garbage collections in the window", p.GCCount))
	return f
}
