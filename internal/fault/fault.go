// Package fault is the simulator's deterministic fault-injection subsystem.
// A Schedule places fault windows on the simulated-cycle timeline; an
// Injector, seeded from the run's simrand stream, answers the questions the
// rest of the stack asks while a run plays:
//
//   - internal/netsim asks for a link latency factor (latency spikes);
//   - internal/db asks for a service-time factor (lock storms, and the
//     cold-cache ramp after a crashed node restarts);
//   - internal/osmodel asks for a stop-the-world amplification factor
//     (GC pause storms);
//   - the application server's resilient call path (internal/appserver)
//     asks for the outcome of one call attempt (ok, refused by a crashed
//     node, or lost to a partition / packet loss);
//   - internal/cluster asks whether the co-simulated peer is reachable.
//
// Everything is a pure function of (schedule, seed, query order), and the
// simulator is single-threaded per run, so a faulted experiment replays
// bit-identically from its seed — faults are a reproducible workload
// dimension, not noise.
//
// The package also provides the matching resilience primitives (the call
// timeout and retry constants, Backoff, Breaker, Shedder — see
// resilience.go) and the open system's overload controllers (overload.go).
// They live here rather than in the application server so the timing layer
// and tests can reason about degraded-mode behavior without importing
// workload code. Each has one tuning, kept as package constants.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/simrand"
)

// Kind discriminates fault types.
type Kind uint8

const (
	// NodeCrash takes a peer machine down for the window: connections are
	// refused immediately (fast failure), and for half the window's length
	// after restart the recovering node serves slowly (cold buffer pool) —
	// the service factor decays linearly from Magnitude back to 1.
	NodeCrash Kind = iota
	// Partition black-holes traffic to a peer: requests are silently lost
	// and the caller burns its full timeout discovering it.
	Partition
	// PacketLoss drops each request to a peer independently with
	// probability Magnitude (0, 1]; a dropped request costs the caller a
	// timeout.
	PacketLoss
	// LatencySpike multiplies link transfer time to a peer by Magnitude
	// (> 1) for the window.
	LatencySpike
	// DBLockStorm multiplies remote-tier service time by Magnitude (> 1)
	// for the window — the queueing-model equivalent of a lock convoy in
	// the database.
	DBLockStorm
	// GCStorm multiplies stop-the-world pause lengths by Magnitude (> 1)
	// for the window, modeling a degraded collector (fragmented heap,
	// promotion storm).
	GCStorm
	numKinds
)

var kindNames = [numKinds]string{
	NodeCrash:    "node-crash",
	Partition:    "partition",
	PacketLoss:   "packet-loss",
	LatencySpike: "latency-spike",
	DBLockStorm:  "db-lock-storm",
	GCStorm:      "gc-storm",
}

// String returns the kind's schedule-file name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromString resolves a schedule-file kind name.
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one fault window on the simulated-cycle timeline.
type Event struct {
	Kind Kind
	// At is the window's start cycle; Duration its length (cycles, > 0).
	At, Duration uint64
	// Peer targets one peer machine for network faults (NodeCrash,
	// Partition, PacketLoss, LatencySpike); 0 targets every peer. Ignored
	// by machine-wide kinds (DBLockStorm, GCStorm).
	Peer uint8
	// Magnitude is the kind-specific intensity: loss probability for
	// PacketLoss; a multiplier (> 1) for LatencySpike, DBLockStorm, GCStorm;
	// the post-restart service multiplier for NodeCrash (0 picks a default).
	Magnitude float64
}

// End returns the first cycle after the window.
func (e Event) End() uint64 { return e.At + e.Duration }

// covers reports whether the window is active at cycle t.
func (e Event) covers(t uint64) bool { return t >= e.At && t < e.End() }

// appliesTo reports whether the event targets peer (0 = all peers).
func (e Event) appliesTo(peer uint8) bool { return e.Peer == 0 || e.Peer == peer }

func (e Event) String() string {
	s := fmt.Sprintf("%s @%d +%d", e.Kind, e.At, e.Duration)
	if e.Peer != 0 {
		s += fmt.Sprintf(" peer=%d", e.Peer)
	}
	if e.Magnitude != 0 {
		s += fmt.Sprintf(" x%.2f", e.Magnitude)
	}
	return s
}

// crashRampDefault is the post-restart service multiplier when a NodeCrash
// event leaves Magnitude zero.
const crashRampDefault = 4.0

// Schedule is a validated set of fault windows, sorted by start cycle.
type Schedule struct {
	Events []Event
}

// Validate checks every event and the schedule's overlap rules, and sorts
// the events by start cycle (stable on ties). Two windows of the same kind
// aimed at the same peer must not overlap — an overlapping pair almost
// always means a typo in cycle arithmetic, and erroring beats silently
// compounding magnitudes.
func (s *Schedule) Validate() error {
	for i := range s.Events {
		if err := s.Events[i].validate(); err != nil {
			return fmt.Errorf("event %d (%s): %w", i, s.Events[i].Kind, err)
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	for i := range s.Events {
		for j := i + 1; j < len(s.Events); j++ {
			a, b := s.Events[i], s.Events[j]
			if b.At >= a.End() {
				break // sorted: no later event can overlap a
			}
			samePeer := a.Peer == b.Peer || a.Peer == 0 || b.Peer == 0
			if a.Kind == b.Kind && samePeer {
				return fmt.Errorf("overlapping %s windows: [%s] and [%s]", a.Kind, a, b)
			}
		}
	}
	return nil
}

func (e *Event) validate() error {
	if int(e.Kind) >= int(numKinds) {
		return fmt.Errorf("unknown kind %d", e.Kind)
	}
	if e.Duration == 0 {
		return fmt.Errorf("zero-length window")
	}
	if e.At+e.Duration < e.At {
		return fmt.Errorf("window end overflows uint64 (at=%d duration=%d)", e.At, e.Duration)
	}
	switch e.Kind {
	case PacketLoss:
		if e.Magnitude <= 0 || e.Magnitude > 1 {
			return fmt.Errorf("loss probability %g outside (0, 1]", e.Magnitude)
		}
	case LatencySpike, DBLockStorm, GCStorm:
		if e.Magnitude <= 1 {
			return fmt.Errorf("multiplier %g must exceed 1", e.Magnitude)
		}
	case NodeCrash:
		if e.Magnitude < 0 || (e.Magnitude > 0 && e.Magnitude < 1) {
			return fmt.Errorf("restart-ramp multiplier %g must be 0 (default) or >= 1", e.Magnitude)
		}
	case Partition:
		if e.Magnitude != 0 {
			return fmt.Errorf("partition takes no magnitude (got %g)", e.Magnitude)
		}
	}
	return nil
}

// Demo returns the documented demonstration schedule used by
// `ecperfsim -faults demo`: one window of every fault kind spread across
// [start, start+span), sized so the windows are well separated and recovery
// between them is visible.
func Demo(start, span uint64) *Schedule {
	w := span / 20 // window length: 5% of the span each
	s := &Schedule{Events: []Event{
		{Kind: LatencySpike, At: start + 2*w, Duration: w, Magnitude: 8},
		{Kind: PacketLoss, At: start + 5*w, Duration: w, Peer: 1, Magnitude: 0.4},
		{Kind: Partition, At: start + 8*w, Duration: w, Peer: 1},
		{Kind: DBLockStorm, At: start + 11*w, Duration: w, Magnitude: 6},
		{Kind: NodeCrash, At: start + 14*w, Duration: w, Peer: 1},
		{Kind: GCStorm, At: start + 17*w, Duration: w, Magnitude: 5},
	}}
	if err := s.Validate(); err != nil {
		panic("fault: demo schedule invalid: " + err.Error())
	}
	return s
}

// Outcome is the injector's verdict on one call attempt.
type Outcome uint8

const (
	// OK: the attempt goes through; the caller performs the real round trip.
	OK Outcome = iota
	// FastFail: the peer refused the connection (crashed node); the caller
	// learns immediately.
	FastFail
	// Lost: the request vanished (partition or packet loss); the caller
	// burns its full timeout before concluding failure.
	Lost
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case FastFail:
		return "fastfail"
	case Lost:
		return "lost"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// InjectStats counts injector decisions, by fault kind where it matters.
type InjectStats struct {
	// Refused counts FastFail outcomes (crashed peer), Dropped counts Lost
	// outcomes split by cause.
	Refused          uint64
	DroppedPartition uint64
	DroppedLoss      uint64
	// LatencyScaled / ServiceScaled / GCScaled count queries answered with
	// a factor above 1.
	LatencyScaled uint64
	ServiceScaled uint64
	GCScaled      uint64
}

// Injector answers fault queries against a schedule. A nil *Injector is
// valid and injects nothing, so instrumented components pay one nil check
// when fault injection is off.
//
// The injector is not safe for concurrent use; one run owns one injector,
// like a Tracer.
type Injector struct {
	sched *Schedule
	rng   *simrand.Rand

	// Stats counts decisions; read it after a run for reporting.
	Stats InjectStats

	tracer *obs.Tracer
}

// traceTID is the trace track of fault windows and instants: the
// machine-wide track, not any thread's.
const traceTID = -1

// NewInjector builds an injector over a validated schedule. rng must be a
// dedicated stream derived from the run seed (the injector's draws then
// never perturb any other consumer's sequence).
func NewInjector(s *Schedule, rng *simrand.Rand) *Injector {
	if s == nil {
		s = &Schedule{}
	}
	return &Injector{sched: s, rng: rng}
}

// AttachTracer emits every scheduled window as a span (obs.CompFault) on
// the machine-wide trace track so degraded intervals are visible alongside
// the GC, lock, and network events the stack already records.
func (inj *Injector) AttachTracer(t *obs.Tracer) {
	if inj == nil {
		return
	}
	inj.tracer = t
	for _, e := range inj.sched.Events {
		if !t.Admit(obs.CompFault) {
			continue
		}
		args := []obs.Arg{obs.Str("kind", e.Kind.String())}
		if e.Peer != 0 {
			args = append(args, obs.U64("peer", uint64(e.Peer)))
		}
		if e.Magnitude != 0 {
			args = append(args, obs.F64("magnitude", e.Magnitude))
		}
		t.Span(obs.CompFault, "fault."+e.Kind.String(), traceTID, e.At, e.End(), args...)
	}
}

// active returns the first window of kind k covering (peer, t).
func (inj *Injector) active(k Kind, peer uint8, t uint64) (Event, bool) {
	if inj == nil {
		return Event{}, false
	}
	for _, e := range inj.sched.Events {
		if e.At > t {
			break
		}
		if e.Kind == k && e.covers(t) && e.appliesTo(peer) {
			return e, true
		}
	}
	return Event{}, false
}

// PeerDown reports whether peer is unreachable at t and why: (true, true)
// for a crashed node (fast failure), (true, false) for a partition
// (requests are silently lost). Packet loss is probabilistic and only
// surfaces through CallOutcome.
func (inj *Injector) PeerDown(peer uint8, t uint64) (down, crashed bool) {
	if _, ok := inj.active(NodeCrash, peer, t); ok {
		return true, true
	}
	if _, ok := inj.active(Partition, peer, t); ok {
		return true, false
	}
	return false, false
}

// CallOutcome decides the fate of one call attempt to peer at cycle t. The
// packet-loss draw consumes the injector's rng only inside a loss window,
// so runs with disjoint schedules stay comparable draw-for-draw.
func (inj *Injector) CallOutcome(peer uint8, t uint64) Outcome {
	if inj == nil {
		return OK
	}
	if down, crashed := inj.PeerDown(peer, t); down {
		if crashed {
			inj.Stats.Refused++
			return FastFail
		}
		inj.Stats.DroppedPartition++
		return Lost
	}
	if e, ok := inj.active(PacketLoss, peer, t); ok && inj.rng.Bool(e.Magnitude) {
		inj.Stats.DroppedLoss++
		return Lost
	}
	return OK
}

// LinkFactor returns the latency multiplier for traffic to peer at t
// (1 when no spike window is active).
func (inj *Injector) LinkFactor(peer uint8, t uint64) float64 {
	if e, ok := inj.active(LatencySpike, peer, t); ok {
		inj.Stats.LatencyScaled++
		return e.Magnitude
	}
	return 1
}

// ServiceFactor returns the remote-tier service-time multiplier at t: the
// lock-storm multiplier inside a DBLockStorm window, and the linearly
// decaying cold-cache ramp for half a window after a crashed peer restarts.
func (inj *Injector) ServiceFactor(peer uint8, t uint64) float64 {
	if e, ok := inj.active(DBLockStorm, peer, t); ok {
		inj.Stats.ServiceScaled++
		return e.Magnitude
	}
	if inj == nil {
		return 1
	}
	for _, e := range inj.sched.Events {
		if e.Kind != NodeCrash || !e.appliesTo(peer) {
			continue
		}
		ramp := e.Duration / 2
		if t < e.End() || t >= e.End()+ramp || ramp == 0 {
			continue
		}
		peak := e.Magnitude
		if peak == 0 {
			peak = crashRampDefault
		}
		frac := float64(t-e.End()) / float64(ramp)
		inj.Stats.ServiceScaled++
		return peak - (peak-1)*frac
	}
	return 1
}

// GCFactor returns the stop-the-world pause multiplier at t (1 outside
// GCStorm windows).
func (inj *Injector) GCFactor(t uint64) float64 {
	if e, ok := inj.active(GCStorm, 0, t); ok {
		inj.Stats.GCScaled++
		return e.Magnitude
	}
	return 1
}

// Admit reports whether the attached tracer records the next fault-component
// instant; see obs.Tracer.Admit. Call Instant only when it returns true.
func (inj *Injector) Admit() bool {
	return inj != nil && inj.tracer.Admit(obs.CompFault)
}

// Instant records a fault-component instant event (retries, sheds, breaker
// transitions) that Admit let through.
func (inj *Injector) Instant(name string, t uint64, args ...obs.Arg) {
	inj.tracer.Instant(obs.CompFault, name, traceTID, t, args...)
}
