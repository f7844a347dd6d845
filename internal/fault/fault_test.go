package fault

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/simrand"
)

func TestParseScheduleValid(t *testing.T) {
	data := []byte(`{"events": [
		{"kind": "partition", "at": 2000, "duration": 500, "peer": 1},
		{"kind": "packet-loss", "at": "3000", "duration": "500", "peer": 1, "magnitude": 0.25},
		{"kind": "latency-spike", "at": 1000, "duration": 400, "magnitude": 4},
		{"kind": "db-lock-storm", "at": 5000, "duration": 800, "magnitude": 6},
		{"kind": "node-crash", "at": 7000, "duration": 600, "peer": 2},
		{"kind": "gc-storm", "at": 9000, "duration": 300, "magnitude": 3}
	]}`)
	s, err := ParseSchedule(data)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if len(s.Events) != 6 {
		t.Fatalf("got %d events, want 6", len(s.Events))
	}
	// Validate sorts by start cycle.
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At < s.Events[i-1].At {
			t.Fatalf("events not sorted: %v before %v", s.Events[i-1], s.Events[i])
		}
	}
	if s.Events[0].Kind != LatencySpike {
		t.Fatalf("first event should be the latency spike, got %v", s.Events[0])
	}
}

func TestParseScheduleErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"syntax", `{"events": [`, "fault schedule"},
		{"unknown kind", `{"events":[{"kind":"meteor","at":1,"duration":1}]}`, "unknown kind"},
		{"zero duration", `{"events":[{"kind":"partition","at":1,"duration":0}]}`, "zero-length"},
		{"missing duration", `{"events":[{"kind":"partition","at":1}]}`, "duration"},
		{"negative at", `{"events":[{"kind":"partition","at":-5,"duration":1}]}`, "cycle count"},
		{"float at", `{"events":[{"kind":"partition","at":1.5,"duration":1}]}`, "cycle count"},
		{"overflow window", `{"events":[{"kind":"partition","at":18446744073709551615,"duration":2}]}`, "overflows"},
		{"loss prob high", `{"events":[{"kind":"packet-loss","at":1,"duration":1,"magnitude":1.5}]}`, "outside"},
		{"loss prob zero", `{"events":[{"kind":"packet-loss","at":1,"duration":1}]}`, "outside"},
		{"spike factor low", `{"events":[{"kind":"latency-spike","at":1,"duration":1,"magnitude":0.5}]}`, "exceed 1"},
		{"partition magnitude", `{"events":[{"kind":"partition","at":1,"duration":1,"magnitude":2}]}`, "no magnitude"},
		{"overlap same kind peer", `{"events":[
			{"kind":"partition","at":10,"duration":100,"peer":1},
			{"kind":"partition","at":50,"duration":100,"peer":1}]}`, "overlapping"},
		{"overlap all-peers wildcard", `{"events":[
			{"kind":"packet-loss","at":10,"duration":100,"magnitude":0.5},
			{"kind":"packet-loss","at":50,"duration":100,"peer":2,"magnitude":0.5}]}`, "overlapping"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSchedule([]byte(c.in))
			if err == nil {
				t.Fatalf("ParseSchedule accepted %s", c.in)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestParseScheduleAllowsDisjointAndCrossKindOverlap(t *testing.T) {
	_, err := ParseSchedule([]byte(`{"events":[
		{"kind":"partition","at":10,"duration":40,"peer":1},
		{"kind":"partition","at":50,"duration":40,"peer":1},
		{"kind":"gc-storm","at":20,"duration":100,"magnitude":2},
		{"kind":"packet-loss","at":30,"duration":40,"peer":2,"magnitude":0.1}]}`))
	if err != nil {
		t.Fatalf("disjoint/cross-kind windows should validate: %v", err)
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	orig := Demo(1_000_000, 10_000_000)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Events) != len(orig.Events) {
		t.Fatalf("round trip lost events: %d != %d", len(back.Events), len(orig.Events))
	}
	for i := range back.Events {
		if back.Events[i] != orig.Events[i] {
			t.Fatalf("event %d changed: %v != %v", i, back.Events[i], orig.Events[i])
		}
	}
}

func TestInjectorWindows(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: LatencySpike, At: 100, Duration: 100, Magnitude: 8},
		{Kind: DBLockStorm, At: 300, Duration: 100, Magnitude: 6},
		{Kind: GCStorm, At: 500, Duration: 100, Magnitude: 5},
		{Kind: NodeCrash, At: 700, Duration: 100, Peer: 1},
		{Kind: Partition, At: 900, Duration: 100, Peer: 2},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(s, simrand.New(1))

	if f := inj.LinkFactor(1, 150); f != 8 {
		t.Fatalf("LinkFactor inside spike = %g, want 8", f)
	}
	if f := inj.LinkFactor(1, 250); f != 1 {
		t.Fatalf("LinkFactor outside spike = %g, want 1", f)
	}
	if f := inj.ServiceFactor(1, 350); f != 6 {
		t.Fatalf("ServiceFactor in storm = %g, want 6", f)
	}
	if f := inj.GCFactor(550); f != 5 {
		t.Fatalf("GCFactor in storm = %g, want 5", f)
	}
	if f := inj.GCFactor(650); f != 1 {
		t.Fatalf("GCFactor outside storm = %g, want 1", f)
	}

	if out := inj.CallOutcome(1, 750); out != FastFail {
		t.Fatalf("call to crashed peer = %v, want fastfail", out)
	}
	if out := inj.CallOutcome(2, 750); out != OK {
		t.Fatalf("crash targets peer 1 only, got %v for peer 2", out)
	}
	if out := inj.CallOutcome(2, 950); out != Lost {
		t.Fatalf("call into partition = %v, want lost", out)
	}
	// Post-crash recovery ramp: factor decays from the default toward 1.
	early := inj.ServiceFactor(1, 801)
	late := inj.ServiceFactor(1, 845)
	if early <= late || late <= 1 {
		t.Fatalf("recovery ramp should decay: early %g, late %g", early, late)
	}
	if f := inj.ServiceFactor(1, 860); f != 1 {
		t.Fatalf("ramp over at +dur/2, got %g", f)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: PacketLoss, At: 0, Duration: 1 << 40, Peer: 1, Magnitude: 0.5},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	a := NewInjector(s, simrand.New(42))
	b := NewInjector(s, simrand.New(42))
	for i := uint64(0); i < 1000; i++ {
		oa, ob := a.CallOutcome(1, i*100), b.CallOutcome(1, i*100)
		if oa != ob {
			t.Fatalf("draw %d diverged: %v != %v", i, oa, ob)
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v != %+v", a.Stats, b.Stats)
	}
	if a.Stats.DroppedLoss == 0 || a.Stats.DroppedLoss == 1000 {
		t.Fatalf("loss draws degenerate: %d/1000 dropped", a.Stats.DroppedLoss)
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var inj *Injector
	if out := inj.CallOutcome(1, 10); out != OK {
		t.Fatalf("nil injector outcome = %v", out)
	}
	if f := inj.LinkFactor(1, 10); f != 1 {
		t.Fatalf("nil injector link factor = %g", f)
	}
	if f := inj.ServiceFactor(1, 10); f != 1 {
		t.Fatalf("nil injector service factor = %g", f)
	}
	if f := inj.GCFactor(10); f != 1 {
		t.Fatalf("nil injector gc factor = %g", f)
	}
	if down, _ := inj.PeerDown(1, 10); down {
		t.Fatal("nil injector reports a peer down")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker()

	for i := 0; i < breakerFailures; i++ {
		if !b.Allow(uint64(i)) {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Record(uint64(i), false)
	}
	opened := uint64(breakerFailures - 1) // the failure that tripped it
	if b.State(opened) != BreakerOpen {
		t.Fatalf("breaker should open after %d failures, state %v", breakerFailures, b.State(opened))
	}
	if b.Allow(opened + 10) {
		t.Fatal("open breaker admitted a call")
	}
	if got := b.Stats.Opens; got != 1 {
		t.Fatalf("opens = %d, want 1", got)
	}

	// Cooldown elapses at opened+cooldown: half-open admits exactly one probe.
	probe := opened + breakerCooldownCycles + 5
	if !b.Allow(probe) {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow(probe + 1) {
		t.Fatal("half-open breaker admitted a second concurrent call")
	}
	b.Record(probe, false) // probe fails: re-open
	if b.State(probe+100) != BreakerOpen {
		t.Fatalf("failed probe should re-open, state %v", b.State(probe+100))
	}

	second := probe + breakerCooldownCycles + 100 // second cooldown elapsed
	if !b.Allow(second) {
		t.Fatal("breaker refused second probe")
	}
	b.Record(second, true)
	if b.State(second+100) != BreakerClosed {
		t.Fatalf("successful probe should close, state %v", b.State(second+100))
	}
	if !b.Allow(second + 101) {
		t.Fatal("closed breaker refused a call after recovery")
	}
}

func TestBackoffCapAndJitter(t *testing.T) {
	if d := Backoff(1, nil); d != backoffBaseCycles {
		t.Fatalf("backoff(1) = %d, want %d", d, backoffBaseCycles)
	}
	if d := Backoff(2, nil); d != 2*backoffBaseCycles {
		t.Fatalf("backoff(2) = %d, want %d", d, 2*backoffBaseCycles)
	}
	if d := Backoff(10, nil); d != backoffCapCycles {
		t.Fatalf("backoff(10) = %d, want cap %d", d, backoffCapCycles)
	}

	// ±jitterFrac around the nominal 2*base.
	const lo, hi = 2 * backoffBaseCycles * (1 - jitterFrac), 2 * backoffBaseCycles * (1 + jitterFrac)
	rng := simrand.New(7)
	seen := map[uint32]bool{}
	for i := 0; i < 64; i++ {
		d := Backoff(2, rng)
		if d < lo || d > hi {
			t.Fatalf("jittered backoff %d outside [%d, %d]", d, uint32(lo), uint32(hi))
		}
		seen[d] = true
	}
	if len(seen) < 8 {
		t.Fatalf("jitter produced only %d distinct delays", len(seen))
	}

	// Same seed, same sequence.
	r1, r2 := simrand.New(9), simrand.New(9)
	for i := 1; i <= 8; i++ {
		if a, b := Backoff(i, r1), Backoff(i, r2); a != b {
			t.Fatalf("backoff not deterministic: %d != %d", a, b)
		}
	}
}

func TestShedderProportionalControl(t *testing.T) {
	const w = shedWindowCycles
	s := NewShedder()
	rng := simrand.New(3)

	// Healthy window: everything admitted afterwards.
	for i := uint64(0); i < 20; i++ {
		s.Observe(i*w/100, true)
	}
	for i := uint64(0); i < 50; i++ {
		if !s.Admit(w+w/10+i, rng) {
			t.Fatal("shedder rejected during healthy operation")
		}
	}

	// A window of pure failures: the next window sheds everything
	// (rate 1.0 -> shed probability 1).
	for i := uint64(0); i < 20; i++ {
		s.Observe(2*w+i*w/100, false)
	}
	shed := 0
	for i := uint64(0); i < 50; i++ {
		if !s.Admit(3*w+w/10+i, rng) {
			shed++
		}
	}
	if shed != 50 {
		t.Fatalf("total failure should shed all: %d/50", shed)
	}

	// With no further observations the estimate decays window over window
	// until admission resumes.
	if !s.Admit(3*w+w/10+10*w, rng) {
		t.Fatal("overload estimate never decayed")
	}
	if s.Shed == 0 {
		t.Fatal("shed counter not incremented")
	}
}

func TestDemoScheduleCoversEveryKind(t *testing.T) {
	s := Demo(12_000_000, 50_000_000)
	seen := map[Kind]bool{}
	for _, e := range s.Events {
		seen[e.Kind] = true
	}
	for k := Kind(0); k < numKinds; k++ {
		if !seen[k] {
			t.Fatalf("demo schedule missing kind %v", k)
		}
	}
	for _, e := range s.Events {
		end := e.End()
		if e.Kind == NodeCrash {
			end += e.Duration / 2 // restart ramp
		}
		if end > 12_000_000+50_000_000 {
			t.Fatalf("demo schedule overruns the window: %v ends at %d", e.Kind, end)
		}
	}
}
