// Run survivability: checkpoint/restore for long simulations.
//
// The simulator is deterministic — a run is a pure function of its
// SystemParams (seed included) — so a checkpoint does not serialize the
// machine state. It records the *recipe* (params, phase boundaries, the
// cycle reached) plus a fingerprint of the run's observable state at that
// cycle. Restore rebuilds the system and replays it to the checkpoint
// cycle, then verifies the fingerprint: a resumed run is bit-identical to
// one that never stopped, and any drift (changed code, changed schedule,
// corrupted file) is detected instead of silently producing wrong curves.
package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"repro/internal/obs"
)

// CheckpointVersion guards the format; bump on incompatible change.
const CheckpointVersion = 1

// Checkpoint is the saved run recipe + state fingerprint.
type Checkpoint struct {
	Version int    `json:"version"`
	Command string `json:"command,omitempty"` // which driver wrote it

	Params SystemParams `json:"params"`
	// Warmup is the cycle at which stats were reset (0 = never).
	Warmup uint64 `json:"warmup"`
	// Cycle is the simulated time the run had reached.
	Cycle uint64 `json:"cycle"`
	// Digest fingerprints the run's observable state at Cycle.
	Digest uint64 `json:"digest"`
}

// Fingerprint hashes the system's observable state: engine results
// (throughput, per-tag ops, cycle accounting, locks, GC), bus statistics,
// heap occupancy, and fault/resilience counters. Two runs with equal
// fingerprints at the same cycle have behaved identically in every way the
// experiments report.
func Fingerprint(sys *System) uint64 {
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }

	eng := sys.Engine
	res := eng.Results()
	w("t=%d ops=%d", eng.Now(), res.BusinessOps)
	tags := make([]string, 0, len(res.OpsByTag))
	for tag := range res.OpsByTag {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		w(" %s=%d", tag, res.OpsByTag[tag])
	}
	w(" modes=%+v cpu=%+v", res.Modes, res.CPU)
	w(" gc=%d,%d locks=%d,%d,%d wait=%d,%d,%d",
		res.GCCount, res.GCWall, res.LockWaitCycles, res.LockBlocks, res.LockAcquires,
		res.WaitMonitor, res.WaitSpin, res.WaitSem)
	w(" bus=%+v", sys.Hier.Bus().Stats)
	w(" heap=%d,%d", sys.Heap.EdenUsed(), sys.Heap.OldUsed())
	if sys.Faults != nil {
		w(" inj=%+v", sys.Faults.Stats)
	}
	if sys.EC != nil {
		w(" failed=%d shed=%d", sys.EC.FailedOps, sys.EC.ShedOps)
		if c := sys.EC.Caller(); c != nil {
			w(" calls=%+v breaker=%+v", c.Stats, c.BreakerStats())
		}
	}
	return h.Sum64()
}

// Capture snapshots a running system into a checkpoint. warmup must be the
// cycle at which the caller reset stats (0 if it never did), and ranTo the
// horizon of the last Engine.Run call — not Engine.Now(), which can sit a
// little past the horizon and would make the replay process events the
// original run had not reached yet.
func Capture(sys *System, warmup, ranTo uint64, command string) Checkpoint {
	return Checkpoint{
		Version: CheckpointVersion,
		Command: command,
		Params:  sys.Params,
		Warmup:  warmup,
		Cycle:   ranTo,
		Digest:  Fingerprint(sys),
	}
}

// Save writes the checkpoint atomically (write-temp-then-rename): a crash
// mid-write leaves the previous checkpoint intact.
func (cp Checkpoint) Save(path string) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	return obs.AtomicWriteFile(path, append(data, '\n'), 0o644)
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (Checkpoint, error) {
	var cp Checkpoint
	data, err := os.ReadFile(path)
	if err != nil {
		return cp, err
	}
	if err := json.Unmarshal(data, &cp); err != nil {
		return cp, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if cp.Version != CheckpointVersion {
		return cp, fmt.Errorf("checkpoint %s: version %d, want %d", path, cp.Version, CheckpointVersion)
	}
	if cp.Warmup > cp.Cycle {
		return cp, fmt.Errorf("checkpoint %s: warmup %d beyond cycle %d", path, cp.Warmup, cp.Cycle)
	}
	return cp, nil
}

// CheckpointPlan tells a run driver where and how often to save resumable
// checkpoints. A nil plan (or empty Path) disables saving.
type CheckpointPlan struct {
	Path string
	// Every is the save cadence in simulated cycles over the measurement
	// window; 0 saves only at the run's end.
	Every   uint64
	Command string
}

// save captures and writes a checkpoint at horizon ranTo.
func (p *CheckpointPlan) save(sys *System, warmup, ranTo uint64) error {
	if p == nil || p.Path == "" {
		return nil
	}
	return Capture(sys, warmup, ranTo, p.Command).Save(p.Path)
}

// verifyReplay checks a system replayed to cp.Cycle against the
// checkpoint's fingerprint.
func verifyReplay(sys *System, cp Checkpoint) error {
	if got := Fingerprint(sys); got != cp.Digest {
		return fmt.Errorf("checkpoint replay diverged at cycle %d: fingerprint %#x, want %#x (code or schedule changed since the checkpoint was written?)",
			cp.Cycle, got, cp.Digest)
	}
	return nil
}
