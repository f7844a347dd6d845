package obs

import (
	"fmt"
	"io"
	"strings"
)

// Registry is the unified, hierarchical metrics registry. Components bind
// namespaced metrics ("memsys.l2.miss", "jvm.gc.pause_cycles") as *pull*
// closures over their existing counters: registration costs one closure,
// and the instrumented hot paths keep their plain uint64 increments — the
// registry reads them only when a snapshot is taken. Snapshots subtract
// (Snapshot.Delta) so figure drivers can attribute counts to measurement
// intervals instead of whole runs, the paper's warm-up/measure discipline.
//
// Names use dot-separated segments, coarsest first. Registration order is
// preserved; rendering groups by leading segment.
type Registry struct {
	names   []string
	kinds   map[string]metricKind
	counter map[string]func() uint64
	gauge   map[string]func() float64
	histo   map[string]*HDR
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHisto
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:   map[string]metricKind{},
		counter: map[string]func() uint64{},
		gauge:   map[string]func() float64{},
		histo:   map[string]*HDR{},
	}
}

func (r *Registry) register(name string, k metricKind) {
	if _, dup := r.kinds[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.kinds[name] = k
	r.names = append(r.names, name)
}

// Counter binds a monotonically non-decreasing count (within a measurement
// interval; ResetStats-style zeroing between intervals is fine because
// snapshots are deltaed against the interval base, not each other).
func (r *Registry) Counter(name string, read func() uint64) {
	if r == nil {
		return
	}
	r.register(name, kindCounter)
	r.counter[name] = read
}

// Gauge binds an instantaneous level (utilization, occupancy, ratio).
func (r *Registry) Gauge(name string, read func() float64) {
	if r == nil {
		return
	}
	r.register(name, kindGauge)
	r.gauge[name] = read
}

// Histogram binds a distribution that its owner records into (and
// resets) in place; every snapshot clones it so deltas subtract
// bucket-wise.
func (r *Registry) Histogram(name string, h *HDR) {
	if r == nil {
		return
	}
	r.register(name, kindHisto)
	r.histo[name] = h
}

// Snapshot captures every bound metric's current value.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		reg:      r,
		counters: make(map[string]uint64, len(r.counter)),
		gauges:   make(map[string]float64, len(r.gauge)),
		histos:   make(map[string]*HDR, len(r.histo)),
	}
	for n, f := range r.counter {
		s.counters[n] = f()
	}
	for n, f := range r.gauge {
		s.gauges[n] = f()
	}
	for n, h := range r.histo {
		s.histos[n] = h.Clone()
	}
	return s
}

// Snapshot is the registry's state at one instant.
type Snapshot struct {
	reg      *Registry
	counters map[string]uint64
	gauges   map[string]float64
	histos   map[string]*HDR
}

// Delta returns this snapshot with the base subtracted: counters and
// histogram buckets subtract (saturating at zero, so a ResetStats between
// base and s still yields usable numbers); gauges keep their later value
// (levels do not difference).
func (s *Snapshot) Delta(base *Snapshot) *Snapshot {
	if base == nil {
		return s
	}
	d := &Snapshot{
		reg:      s.reg,
		counters: make(map[string]uint64, len(s.counters)),
		gauges:   s.gauges,
		histos:   make(map[string]*HDR, len(s.histos)),
	}
	for n, v := range s.counters {
		b := base.counters[n]
		if v >= b {
			d.counters[n] = v - b
		}
	}
	for n, h := range s.histos {
		d.histos[n] = h.Sub(base.histos[n])
	}
	return d
}

// WriteTo renders the snapshot as aligned text, metrics in registration
// order with a blank line between top-level namespaces.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	prevTop := ""
	for _, n := range s.reg.names {
		if top := topSegment(n); top != prevTop {
			if prevTop != "" {
				b.WriteByte('\n')
			}
			prevTop = top
		}
		switch s.reg.kinds[n] {
		case kindCounter:
			fmt.Fprintf(&b, "%-36s %14d\n", n, s.counters[n])
		case kindGauge:
			fmt.Fprintf(&b, "%-36s %14.4f\n", n, s.gauges[n])
		case kindHisto:
			h := s.histos[n]
			fmt.Fprintf(&b, "%-36s count=%d mean=%.1f p50=%d p90=%d p99=%d\n",
				n, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
		}
	}
	k, err := io.WriteString(w, b.String())
	return int64(k), err
}

func topSegment(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}
