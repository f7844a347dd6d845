package core

import (
	"fmt"
	"math"

	"repro/internal/obs/attr"
)

// commTimelineBin is the Figure 10 sampling interval in cycles (the paper
// used 100 ms of wall time; the simulated equivalent is scaled).
const commTimelineBin = 1_000_000

// CommProfile is one workload's measured communication behavior.
type CommProfile struct {
	Kind Kind
	// Shares are the cache-to-cache transfer counts of every line touched
	// in the window, hottest first (untransferred lines count 0), and
	// Transfers is their sum.
	Shares    []uint64
	Transfers uint64
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

// CommCell is kind's communication-profile cell: an 8-processor run with
// the exact attribution collector attached, whose touched lines and per-line
// transfers give Figures 14/15 and whose transfer timeline gives Figure 10.
func (st Study) CommCell(kind Kind) Cell {
	c := st.cell(st.preset().comm, SystemParams{Kind: kind, Processors: StudyProcessors, Seed: StudySeed})
	c.Attach = CommCollector
	return c
}

// newCommProfile reads the communication profile off cell c's finished
// collector; gcs is the collections inside the window.
func newCommProfile(ac *attr.Collector, c Cell, gcs uint64) *CommProfile {
	p := &CommProfile{Kind: c.Params.Kind, Shares: ac.Shares(), GCCount: gcs}
	for _, n := range p.Shares {
		p.Transfers += n
		if n > 0 {
			p.LinesTransferring++
		}
	}
	p.LinesTouched = len(p.Shares)
	p.TopLineShare = p.topShare(1)
	p.Top01PctShare = p.topShare(max(1, int(math.Ceil(0.001*float64(p.LinesTouched)))))
	// The timeline bins are indexed by absolute simulated time; keep the
	// measurement window's bins. The engine can finish an event a little
	// past the window's end, so the bin that starts there holds only a
	// sliver of accesses and is dropped with the warm-up prefix.
	bins := ac.Timeline()
	lo := min(int(c.Warmup/commTimelineBin), len(bins))
	hi := min(lo+int(c.Measure/commTimelineBin), len(bins))
	for _, v := range bins[lo:hi] {
		p.Timeline = append(p.Timeline, float64(v))
	}
	return p
}

// topShare returns the fraction of all transfers carried by the hottest k
// lines.
func (p *CommProfile) topShare(k int) float64 {
	if p.Transfers == 0 {
		return 0
	}
	var sum uint64
	for _, c := range p.Shares[:min(k, len(p.Shares))] {
		sum += c
	}
	return float64(sum) / float64(p.Transfers)
}

// commStudy is Figures 10/14/15: both workloads' communication profiles.
var commStudy = &Experiment{
	Name: "communication profiles (8 processors)",
	Figs: []int{10, 14, 15},
	cells: func(st Study) []Cell {
		return []Cell{st.CommCell(SPECjbb), st.CommCell(ECperf)}
	},
	render: func(_ Study, rs []CellResult) []Figure {
		jbb, ec := *rs[0].Comm, *rs[1].Comm
		return []Figure{Fig10C2CTimeline(jbb), Fig14C2CDistribution(jbb, ec), Fig15C2CFootprint(jbb, ec)}
	},
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
		// Sample the cumulative curve at every step-th line and the last.
		n := len(p.Shares)
		step := max(n/100, 1)
		var cum uint64
		for i, c := range p.Shares {
			cum += c
			if p.Transfers > 0 && ((i+1)%step == 0 || i+1 == n) {
				s.X = append(s.X, 100*(float64(i+1)/float64(n)))
				s.Y = append(s.Y, 100*(float64(cum)/float64(p.Transfers)))
				s.Err = append(s.Err, 0)
			}
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
			s.Y = append(s.Y, 100*p.topShare(k))
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
// interval over time for SPECjbb, normalized to the peak bin. The
// single-threaded collector is meant to collapse the rate during each
// garbage collection; that does not reproduce (ROADMAP item "The Fig 10
// collapse does not reproduce").
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
