package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Heartbeat prints periodic progress lines (runs completed, runs/sec,
// simulated-vs-wall time) to a writer from a background ticker. Producers
// update the atomic counters from any goroutine:
//
//   - sweep drivers Add(1) to Runs per completed simulation point;
//   - single-run drivers store the engine's cycle position in SimCycles as
//     they advance the run in slices.
//
// A nil *Heartbeat is valid and disabled.
type Heartbeat struct {
	// Runs counts completed simulation runs; TotalRuns, when non-zero, adds
	// an "of N" to the report.
	//
	// Runs and SimCycles are the two counters every scheduler worker hits
	// once per completed simulation point (already batched: one Add(1) and
	// one AddCycles per point, never per cycle). The padding keeps each on
	// its own 64-byte line so concurrent workers on different cores don't
	// false-share; the accounting itself stays exact.
	Runs atomic.Uint64
	_    [56]byte
	// SimCycles is the current simulated-cycle position of a single run, or
	// the accumulated simulated cycles of a sweep's completed points.
	SimCycles atomic.Uint64
	_         [56]byte
	TotalRuns uint64
	// latP50/latP99 carry live request-latency quantiles (in cycles) when a
	// latency collector is attached; zero means "not tracking".
	latP50 atomic.Uint64
	latP99 atomic.Uint64
	// memUtil/memMult carry the loaded-latency model's live channel
	// utilization and memory-latency multiplier (Float64bits); a zero
	// multiplier means "fixed model, nothing to report".
	memUtil atomic.Uint64
	memMult atomic.Uint64
	// trafOffered/trafAdmitted/trafShed carry an open-system driver's live
	// traffic rates in requests per simulated second (Float64bits); a zero
	// offered rate means "closed loop, nothing to report".
	trafOffered  atomic.Uint64
	trafAdmitted atomic.Uint64
	trafShed     atomic.Uint64

	w       io.Writer
	label   string
	start   time.Time
	stop    chan struct{}
	done    chan struct{}
	stopped sync.Once
}

// StartHeartbeat begins printing one line every interval. Stop it with
// Stop; a nil return (interval <= 0) is safely stoppable too.
func StartHeartbeat(w io.Writer, label string, interval time.Duration) *Heartbeat {
	if interval <= 0 {
		return nil
	}
	h := &Heartbeat{
		w:     w,
		label: label,
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				fmt.Fprintln(h.w, h.line())
			}
		}
	}()
	return h
}

// AddRun records one completed run.
func (h *Heartbeat) AddRun() {
	if h != nil {
		h.Runs.Add(1)
	}
}

// SetCycles records the current simulated-cycle position.
func (h *Heartbeat) SetCycles(c uint64) {
	if h != nil {
		h.SimCycles.Store(c)
	}
}

// AddCycles credits simulated cycles (for sweeps, where concurrent runs
// accumulate rather than share one clock).
func (h *Heartbeat) AddCycles(c uint64) {
	if h != nil {
		h.SimCycles.Add(c)
	}
}

// SetLatency records live request-latency quantiles (in cycles) for the
// progress line. Zero values clear the latency segment.
func (h *Heartbeat) SetLatency(p50, p99 uint64) {
	if h != nil {
		h.latP50.Store(p50)
		h.latP99.Store(p99)
	}
}

// SetMemLoad records the loaded-latency model's channel utilization and
// memory-latency multiplier for the progress line. A zero mult clears the
// segment.
func (h *Heartbeat) SetMemLoad(util, mult float64) {
	if h != nil {
		h.memUtil.Store(math.Float64bits(util))
		h.memMult.Store(math.Float64bits(mult))
	}
}

// SetTraffic records an open-system driver's live offered, admitted, and
// shed rates (requests per simulated second) for the progress line. A zero
// offered rate clears the segment.
func (h *Heartbeat) SetTraffic(offered, admitted, shed float64) {
	if h != nil {
		h.trafOffered.Store(math.Float64bits(offered))
		h.trafAdmitted.Store(math.Float64bits(admitted))
		h.trafShed.Store(math.Float64bits(shed))
	}
}

// Stop halts the ticker and prints a final line. It is idempotent, so it
// can be deferred as soon as the heartbeat starts AND called on the normal
// exit path: the abnormal-termination path (panic unwinding, early error
// return) still flushes a final progress line, and the duplicate call on a
// clean exit is a no-op.
func (h *Heartbeat) Stop() {
	if h == nil {
		return
	}
	h.stopped.Do(func() {
		close(h.stop)
		<-h.done
		fmt.Fprintln(h.w, h.line())
	})
}

func (h *Heartbeat) line() string {
	wall := time.Since(h.start).Seconds()
	if wall <= 0 {
		wall = 1e-9
	}
	s := fmt.Sprintf("%s: %.1fs wall", h.label, wall)
	if runs := h.Runs.Load(); runs > 0 || h.TotalRuns > 0 {
		if h.TotalRuns > 0 {
			s += fmt.Sprintf(", %d/%d runs", runs, h.TotalRuns)
		} else {
			s += fmt.Sprintf(", %d runs", runs)
		}
		s += fmt.Sprintf(" (%.2f runs/s)", float64(runs)/wall)
	}
	if cy := h.SimCycles.Load(); cy > 0 {
		simSec := float64(cy) / (CyclesPerMicrosecond * 1e6)
		s += fmt.Sprintf(", sim %.1f Mcy (%.0f ms simulated, %.2f Mcy/s, %.1fx slower than hardware)",
			float64(cy)/1e6, 1000*simSec, float64(cy)/1e6/wall, wall/simSec)
	}
	if p99 := h.latP99.Load(); p99 > 0 {
		toMS := CyclesPerMicrosecond * 1e3
		s += fmt.Sprintf(", lat p50 %.1f ms p99 %.1f ms",
			float64(h.latP50.Load())/toMS, float64(p99)/toMS)
	}
	if mult := math.Float64frombits(h.memMult.Load()); mult > 0 {
		s += fmt.Sprintf(", mem util %.0f%% lat x%.1f",
			100*math.Float64frombits(h.memUtil.Load()), mult)
	}
	if off := math.Float64frombits(h.trafOffered.Load()); off > 0 {
		s += fmt.Sprintf(", offered %.0f/s admitted %.0f/s shed %.0f/s",
			off, math.Float64frombits(h.trafAdmitted.Load()),
			math.Float64frombits(h.trafShed.Load()))
	}
	return s
}
