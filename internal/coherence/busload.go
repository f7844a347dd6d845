package coherence

// LoadTracker measures offered load on the bus/memory-controller path over a
// sliding window of simulated time. It is the sensor half of the loaded-
// latency memory model (internal/memsys): every data-moving bus transaction
// (GetS or GetM; upgrades move no data and are not counted) is recorded into
// a ring of fixed-width cycle buckets, and the memory system reads back the
// window's read/write transaction counts to derive channel utilization.
//
// The simulator is single-threaded per run but per-CPU clocks skew, so the
// `now` passed to consecutive transactions is not monotonic. The tracker
// stays deterministic by clamping backwards timestamps into the current
// bucket: the same transaction order always produces the same bucket
// contents, and a lagging CPU's traffic is simply charged to the window's
// leading edge.
//
// Beyond sensing, the tracker owns the model's serve-point effect: under
// load, a memory-served miss whose block also sits clean in another cache is
// converted to a cache-to-cache supply (Intervene) — real memory systems
// prefer cache intervention over a congested DRAM path, and on a saturated
// channel the arbiter increasingly grants the snoop responder. The
// conversion ramps deterministically with utilization via a fractional
// accumulator, so no randomness enters the protocol.
//
// A nil *LoadTracker on the Bus (the default) keeps the fixed-latency
// model's zero-overhead path: one pointer compare per transaction, like the
// Attr and Tracer hooks.
type LoadTracker struct {
	bucketCycles uint64
	buckets      []loadBucket
	head         int    // index of the bucket containing the leading edge
	headStart    uint64 // start cycle of the head bucket
	// Window totals, maintained incrementally as buckets rotate out.
	reads, writes uint64

	// Occupancy weights (LoadConfig).
	lineCycles, writeWeight float64
	windowCycles            float64

	// Intervention ramp state.
	ivStart, ivMax float64
	ivAcc          float64
	interventions  uint64
}

type loadBucket struct {
	reads, writes uint64
}

// LoadConfig shapes a LoadTracker. The latency curves live on the memory-
// system side (internal/memsys); this is only the bus-side sensing and
// intervention half of the loaded model.
type LoadConfig struct {
	// WindowCycles is the sliding window's span, split into Buckets.
	WindowCycles uint64
	Buckets      int
	// LineCycles is the channel occupancy of one read transfer at peak
	// bandwidth; WriteWeight scales a write's occupancy relative to it.
	LineCycles  float64
	WriteWeight float64
	// InterventionStartUtil is the utilization above which clean-copy
	// intervention begins; the converted fraction ramps linearly from 0
	// there to InterventionMaxFrac at full utilization. A start ≥ 1 (or a
	// zero max fraction) disables intervention.
	InterventionStartUtil float64
	InterventionMaxFrac   float64
}

// NewLoadTracker returns a tracker for the given configuration. It panics
// on a degenerate shape (static experiment configuration).
func NewLoadTracker(c LoadConfig) *LoadTracker {
	if c.Buckets < 2 || c.WindowCycles == 0 || c.WindowCycles/uint64(c.Buckets) == 0 {
		panic("coherence: LoadTracker window must span at least one cycle per bucket, 2+ buckets")
	}
	if c.LineCycles <= 0 || c.WriteWeight <= 0 {
		panic("coherence: LoadTracker occupancy weights must be positive")
	}
	t := &LoadTracker{
		bucketCycles: c.WindowCycles / uint64(c.Buckets),
		buckets:      make([]loadBucket, c.Buckets),
		lineCycles:   c.LineCycles,
		writeWeight:  c.WriteWeight,
		ivStart:      c.InterventionStartUtil,
		ivMax:        c.InterventionMaxFrac,
	}
	t.windowCycles = float64(t.bucketCycles) * float64(c.Buckets)
	return t
}

// Record notes one data-moving bus transaction at simulated time now.
func (t *LoadTracker) Record(now uint64, write bool) {
	if now >= t.headStart+t.bucketCycles {
		t.advance(now)
	}
	if write {
		t.buckets[t.head].writes++
		t.writes++
	} else {
		t.buckets[t.head].reads++
		t.reads++
	}
}

// advance rotates the ring forward until the head bucket contains now,
// retiring (and subtracting) the buckets that fell out of the window.
func (t *LoadTracker) advance(now uint64) {
	steps := (now - t.headStart) / t.bucketCycles
	if steps >= uint64(len(t.buckets)) {
		// The whole window elapsed without traffic; start clean.
		for i := range t.buckets {
			t.buckets[i] = loadBucket{}
		}
		t.reads, t.writes = 0, 0
		t.head = 0
		t.headStart += steps * t.bucketCycles
		return
	}
	for ; steps > 0; steps-- {
		t.head++
		if t.head == len(t.buckets) {
			t.head = 0
		}
		b := &t.buckets[t.head]
		t.reads -= b.reads
		t.writes -= b.writes
		*b = loadBucket{}
		t.headStart += t.bucketCycles
	}
}

// Utilization converts the window's weighted transaction occupancy into
// channel utilization. It can exceed 1 when offered load outruns the
// channel; consumers clamp as needed.
func (t *LoadTracker) Utilization() float64 {
	occ := (float64(t.reads) + t.writeWeight*float64(t.writes)) * t.lineCycles
	return occ / t.windowCycles
}

// Intervene decides whether one intervention-eligible miss — memory-served,
// but with a clean copy resident in another cache — is instead supplied
// cache-to-cache. Call it only for eligible misses: the fractional
// accumulator converts exactly interveneFrac(util) of the eligible stream,
// deterministically, with no randomness.
func (t *LoadTracker) Intervene() bool {
	if t.ivMax <= 0 {
		return false
	}
	u := t.Utilization()
	if u <= t.ivStart || t.ivStart >= 1 {
		return false
	}
	f := (u - t.ivStart) / (1 - t.ivStart) * t.ivMax
	if f > t.ivMax {
		f = t.ivMax
	}
	t.ivAcc += f
	if t.ivAcc >= 1 {
		t.ivAcc--
		t.interventions++
		return true
	}
	return false
}

// Interventions returns the number of misses converted to cache-to-cache
// supply since construction or the last ResetInterventions.
func (t *LoadTracker) Interventions() uint64 { return t.interventions }

// ResetInterventions zeroes the intervention counter (a statistic) while
// leaving the window and ramp accumulator warm (machine state).
func (t *LoadTracker) ResetInterventions() { t.interventions = 0 }
