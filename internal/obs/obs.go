// Package obs is the simulator's observability layer: a simulated-time
// event tracer (Chrome trace_event JSON, loadable in Perfetto), a unified
// pull-model metrics registry with interval snapshots, and a
// simulated-cycle profiler that attributes cycles to (code component ×
// workload phase × stall category) as folded stacks.
//
// The paper's contribution is measurement — CPI breakdowns, data-stall
// decompositions, cache-to-cache ratios, GC pause interactions — and this
// package turns those end-of-run aggregates into time-resolved, attributed
// views of a run. Every piece follows the same contract:
//
//   - Disabled is the default and costs (almost) nothing: a nil *Tracer or
//     *Profiler is a valid receiver whose methods return immediately, so
//     instrumented code guards hot paths with a single nil check.
//   - The clock is the simulated cycle clock, never wall time, so traces
//     and profiles replay deterministically from a seed.
//   - One run owns one Observer; runs in a concurrent sweep each get their
//     own (the simulator is single-threaded per run for determinism).
package obs

import "repro/internal/obs/attr"

// Component names the simulator layer a trace event comes from; it becomes
// the event's trace category.
type Component uint8

const (
	// CompMem traces bus-level memory-system transactions.
	CompMem Component = iota
	// CompOS traces scheduling and lock/semaphore contention stalls.
	CompOS
	// CompJVM traces GC stop-the-world pauses.
	CompJVM
	// CompNet traces synchronous network round trips.
	CompNet
	// CompWorkload traces business-operation (transaction) lifecycles.
	CompWorkload
	// CompFault traces injected fault windows and the resilience layer's
	// reactions (retries, circuit-breaker transitions, shed requests).
	CompFault
)

// String names the component as used in trace categories.
func (c Component) String() string {
	switch c {
	case CompMem:
		return "mem"
	case CompOS:
		return "os"
	case CompJVM:
		return "jvm"
	case CompNet:
		return "net"
	case CompWorkload:
		return "workload"
	case CompFault:
		return "fault"
	default:
		return "obs"
	}
}

// Observer bundles the facilities for one simulated run. Any field may be
// nil: a nil Tracer/Profiler/Attr disables that facility at effectively
// zero cost, and a nil Registry simply has nothing bound to it.
type Observer struct {
	Tracer   *Tracer
	Registry *Registry
	Profiler *Profiler
	Attr     *attr.Collector
	Inspect  *Inspector
	// LatencyReport, when set, renders the run's request-latency/SLO report
	// as JSON. It is a closure rather than a concrete type so this package
	// does not depend on internal/obs/reqtrace (which depends on the HDR
	// histogram here); drivers bind it when they attach a latency collector.
	LatencyReport func() []byte
}
