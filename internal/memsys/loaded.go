package memsys

// The loaded-latency memory model. The fixed model charges every memory-
// served miss the unloaded DRAM latency (75 cycles) no matter how many
// processors hammer the bus, which is why the reproduction's CPI growth
// (Figure 6) and cache-to-cache ratio (Figure 8) both undershoot the paper
// at high processor counts. Following the Mess characterization — latency
// is a bandwidth–latency curve, a function of channel utilization and the
// read/write mix — this model:
//
//  1. tracks offered load with a sliding-window transaction counter on the
//     bus (coherence.LoadTracker), fed by every GetS/GetM;
//  2. converts the window's read/write counts into a channel-occupancy
//     utilization, with writes weighted heavier (a store occupies the
//     memory controller longer than a load: read-modify-write turnaround);
//  3. multiplies the base Memory and C2C latencies by a piecewise-linear
//     curve over that utilization.
//
// Everything is deterministic: the tracker's contents are a pure function
// of the (deterministic) transaction sequence, and the lookup is pure
// arithmetic. Fixed mode leaves the tracker detached and is bit-identical
// to the pre-model simulator.

import (
	"flag"
	"fmt"

	"repro/internal/coherence"
)

// MemModel selects how stall latencies respond to offered load.
type MemModel uint8

const (
	// MemFixed charges the unloaded scalar latencies (the original model).
	MemFixed MemModel = iota
	// MemLoaded charges latencies from the bandwidth–latency curve.
	MemLoaded
)

// String names the model.
func (m MemModel) String() string {
	switch m {
	case MemFixed:
		return "fixed"
	case MemLoaded:
		return "loaded"
	default:
		return fmt.Sprintf("MemModel(%d)", uint8(m))
	}
}

// ParseMemModel parses a -memmodel flag value.
func ParseMemModel(s string) (MemModel, error) {
	switch s {
	case "fixed":
		return MemFixed, nil
	case "loaded":
		return MemLoaded, nil
	default:
		return MemFixed, fmt.Errorf("memsys: unknown memory model %q (want fixed or loaded)", s)
	}
}

// Set parses a -memmodel flag value, making *MemModel a flag.Value.
func (m *MemModel) Set(s string) error {
	v, err := ParseMemModel(s)
	if err == nil {
		*m = v
	}
	return err
}

// RegisterFlag installs -memmodel on fs, parsing into m.
func (m *MemModel) RegisterFlag(fs *flag.FlagSet) {
	fs.Var(m, "memmodel", "memory timing model: fixed (unloaded scalar latencies) or loaded (bandwidth-latency curve)")
}

// CurveKnot is one point of the bandwidth–latency curve: at channel
// utilization Util, the base latency is multiplied by Mult.
type CurveKnot struct {
	Util float64 `json:"util"`
	Mult float64 `json:"mult"`
}

// LoadedConfig parameterizes the loaded-latency model.
type LoadedConfig struct {
	// WindowCycles is the sliding utilization window's span; Buckets is its
	// granularity (the window advances one bucket at a time).
	WindowCycles uint64 `json:"window_cycles"`
	Buckets      int    `json:"buckets"`
	// LineCycles is the channel occupancy one 64-byte read transfer costs at
	// peak bandwidth: the unit that converts window transaction counts into
	// utilization.
	LineCycles float64 `json:"line_cycles"`
	// WriteWeight scales a write's occupancy relative to a read's —
	// the read/write-ratio parameterization of the curve.
	WriteWeight float64 `json:"write_weight"`
	// MemCurve and C2CCurve map utilization to the latency multiplier for
	// memory-served and cache-to-cache transfers. Knots must be sorted by
	// Util with multipliers ≥ 1 and non-decreasing; lookups interpolate
	// linearly and clamp at the ends. The C2C curve is shallower: a snoop
	// copyback contends for the bus but not for the DRAM banks behind it.
	MemCurve []CurveKnot `json:"mem_curve"`
	C2CCurve []CurveKnot `json:"c2c_curve"`
	// InterventionStartUtil and InterventionMaxFrac shape the model's
	// serve-point effect: above the start utilization, a growing fraction of
	// memory-served misses whose block also sits clean in another cache are
	// supplied cache-to-cache instead (cache intervention under load),
	// ramping linearly to the max fraction at full utilization. Set the
	// start ≥ 1 to disable intervention while keeping the latency curves
	// (a zero start means "use the default", like every other field).
	InterventionStartUtil float64 `json:"intervention_start_util"`
	InterventionMaxFrac   float64 `json:"intervention_max_frac"`
}

// DefaultLoadedConfig returns the calibrated E6000-flavored curve: near-flat
// to ~40% utilization, then queueing growth to several times the unloaded
// latency at saturation (the shape the Mess curves show for every DDR-class
// channel, scaled to the Gigaplane's ~75-cycle unloaded latency).
func DefaultLoadedConfig() LoadedConfig {
	return LoadedConfig{
		WindowCycles: 131_072,
		Buckets:      16,
		LineCycles:   24,
		WriteWeight:  1.6,
		MemCurve: []CurveKnot{
			{Util: 0, Mult: 1},
			{Util: 0.30, Mult: 1.05},
			{Util: 0.50, Mult: 1.3},
			{Util: 0.65, Mult: 1.9},
			{Util: 0.80, Mult: 3.2},
			{Util: 0.90, Mult: 4.8},
			{Util: 1.00, Mult: 6.5},
		},
		C2CCurve: []CurveKnot{
			{Util: 0, Mult: 1},
			{Util: 0.30, Mult: 1.02},
			{Util: 0.50, Mult: 1.12},
			{Util: 0.65, Mult: 1.3},
			{Util: 0.80, Mult: 1.7},
			{Util: 0.90, Mult: 2.1},
			{Util: 1.00, Mult: 2.5},
		},
		InterventionStartUtil: 0.35,
		InterventionMaxFrac:   0.85,
	}
}

// withDefaults fills unset fields from DefaultLoadedConfig, so a bare
// Config{Model: MemLoaded} works out of the box and SystemParams overrides
// can set only the fields they care about.
func (c LoadedConfig) withDefaults() LoadedConfig {
	d := DefaultLoadedConfig()
	if c.WindowCycles == 0 {
		c.WindowCycles = d.WindowCycles
	}
	if c.Buckets == 0 {
		c.Buckets = d.Buckets
	}
	if c.LineCycles == 0 {
		c.LineCycles = d.LineCycles
	}
	if c.WriteWeight == 0 {
		c.WriteWeight = d.WriteWeight
	}
	if c.MemCurve == nil {
		c.MemCurve = d.MemCurve
	}
	if c.C2CCurve == nil {
		c.C2CCurve = d.C2CCurve
	}
	if c.InterventionStartUtil == 0 {
		c.InterventionStartUtil = d.InterventionStartUtil
	}
	if c.InterventionMaxFrac == 0 {
		c.InterventionMaxFrac = d.InterventionMaxFrac
	}
	return c
}

// Validate checks the configuration's invariants.
func (c LoadedConfig) Validate() error {
	if c.Buckets < 2 || c.WindowCycles == 0 || c.WindowCycles/uint64(c.Buckets) == 0 {
		return fmt.Errorf("memsys: loaded window %d cycles / %d buckets is degenerate", c.WindowCycles, c.Buckets)
	}
	if c.LineCycles <= 0 {
		return fmt.Errorf("memsys: loaded line occupancy %v cycles", c.LineCycles)
	}
	if c.WriteWeight <= 0 {
		return fmt.Errorf("memsys: loaded write weight %v", c.WriteWeight)
	}
	for name, knots := range map[string][]CurveKnot{"mem": c.MemCurve, "c2c": c.C2CCurve} {
		if len(knots) == 0 {
			return fmt.Errorf("memsys: loaded %s curve has no knots", name)
		}
		for i, k := range knots {
			if k.Util < 0 || k.Mult < 1 {
				return fmt.Errorf("memsys: loaded %s curve knot %d (util %v, mult %v) out of range", name, i, k.Util, k.Mult)
			}
			if i > 0 && (k.Util <= knots[i-1].Util || k.Mult < knots[i-1].Mult) {
				return fmt.Errorf("memsys: loaded %s curve not monotone at knot %d", name, i)
			}
		}
	}
	if c.InterventionStartUtil <= 0 {
		return fmt.Errorf("memsys: loaded intervention start %v (set ≥ 1 to disable)", c.InterventionStartUtil)
	}
	if c.InterventionMaxFrac < 0 || c.InterventionMaxFrac > 1 {
		return fmt.Errorf("memsys: loaded intervention max fraction %v outside [0, 1]", c.InterventionMaxFrac)
	}
	return nil
}

// curveLookup evaluates the piecewise-linear curve at utilization u,
// clamping below the first and above the last knot.
func curveLookup(knots []CurveKnot, u float64) float64 {
	if u <= knots[0].Util {
		return knots[0].Mult
	}
	for i := 1; i < len(knots); i++ {
		if u <= knots[i].Util {
			lo, hi := knots[i-1], knots[i]
			f := (u - lo.Util) / (hi.Util - lo.Util)
			return lo.Mult + f*(hi.Mult-lo.Mult)
		}
	}
	return knots[len(knots)-1].Mult
}

// loadedModel is the per-hierarchy state of the loaded-latency model: the
// bus-side tracker plus the cumulative extra-stall accounting the metrics
// registry exposes.
type loadedModel struct {
	cfg     LoadedConfig
	tracker *coherence.LoadTracker

	// Extra stall cycles charged beyond the fixed model, cumulative since
	// the last ResetStats — the per-interval "cost of contention" metric.
	MemExtraCycles uint64
	C2CExtraCycles uint64
}

// utilization reads the tracker's weighted channel utilization. It can
// exceed 1 when offered load outruns the channel; the curve lookup clamps.
func (m *loadedModel) utilization() float64 {
	return m.tracker.Utilization()
}

// memStall returns the loaded memory latency for one miss, charging the
// curve multiplier at the window's current utilization.
func (m *loadedModel) memStall(base uint64) uint64 {
	s := uint64(float64(base)*curveLookup(m.cfg.MemCurve, m.utilization()) + 0.5)
	m.MemExtraCycles += s - base
	return s
}

// c2cStall is memStall for cache-to-cache transfers.
func (m *loadedModel) c2cStall(base uint64) uint64 {
	s := uint64(float64(base)*curveLookup(m.cfg.C2CCurve, m.utilization()) + 0.5)
	m.C2CExtraCycles += s - base
	return s
}

// LoadSnapshot is the loaded model's live state for observability: the
// current window utilization, the multipliers it implies, and the
// cumulative extra stall charged since the last stats reset.
type LoadSnapshot struct {
	Util           float64
	MemMult        float64
	C2CMult        float64
	MemExtraCycles uint64
	C2CExtraCycles uint64
	// Interventions counts memory-served misses converted to cache-to-cache
	// supply by the load-dependent intervention ramp.
	Interventions uint64
}

// Model returns which latency model the hierarchy runs.
func (h *Hierarchy) Model() MemModel {
	if h.lm != nil {
		return MemLoaded
	}
	return MemFixed
}

// LoadSnapshot reports the loaded model's current state; ok is false under
// the fixed model.
func (h *Hierarchy) LoadSnapshot() (LoadSnapshot, bool) {
	if h.lm == nil {
		return LoadSnapshot{}, false
	}
	u := h.lm.utilization()
	return LoadSnapshot{
		Util:           u,
		MemMult:        curveLookup(h.lm.cfg.MemCurve, u),
		C2CMult:        curveLookup(h.lm.cfg.C2CCurve, u),
		MemExtraCycles: h.lm.MemExtraCycles,
		C2CExtraCycles: h.lm.C2CExtraCycles,
		Interventions:  h.lm.tracker.Interventions(),
	}, true
}
