package core

import (
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// ckptParams is a small, fast faulted configuration: faults armed so the
// fingerprint covers the injector and resilience state too.
func ckptParams() SystemParams {
	return SystemParams{
		Kind: ECperf, Processors: 2, Seed: 42,
		FaultSchedule: &fault.Schedule{Events: []fault.Event{
			{Kind: fault.Partition, At: 6_000_000, Duration: 4_000_000, Peer: 1},
		}},
	}
}

// resume replays cp's system through Run.Measure to end, the path a
// driver's -resume takes: the replay is verified at the checkpoint's cycle.
func resume(cp Checkpoint, end uint64) (*System, error) {
	r := &Run{Sys: BuildSystem(cp.Params), replay: &cp}
	err := r.Measure(cp.Warmup, end-cp.Warmup, nil)
	return r.Sys, err
}

// TestCheckpointResumeBitIdentical is the survivability contract: a run
// resumed from a checkpoint finishes in exactly the state of a run that
// never stopped.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const warmup, mid, end = 2_000_000, 10_000_000, 18_000_000 // on the slice grid

	// The uninterrupted reference run.
	ref := &Run{Sys: BuildSystem(ckptParams())}
	if err := ref.Measure(warmup, end-warmup, nil); err != nil {
		t.Fatal(err)
	}
	want := Fingerprint(ref.Sys)

	// The checkpointed run: save at mid, load, resume, finish.
	orig := &Run{Sys: BuildSystem(ckptParams())}
	var cp Checkpoint
	orig.onSlice = func(t uint64) {
		if t == mid {
			cp = Capture(orig.Sys, warmup, mid, "test")
		}
	}
	if err := orig.Measure(warmup, end-warmup, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest != cp.Digest || loaded.Cycle != cp.Cycle || loaded.Warmup != cp.Warmup {
		t.Fatalf("checkpoint round-trip changed it: %+v != %+v", loaded, cp)
	}
	if len(loaded.Params.FaultSchedule.Events) != 1 {
		t.Fatalf("fault schedule lost in round trip: %+v", loaded.Params.FaultSchedule)
	}
	resumed, err := resume(loaded, end)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(resumed); got != want {
		t.Fatalf("resumed run diverged: fingerprint %#x, want %#x", got, want)
	}
	// And the original, which kept going past the save, matches too.
	if got := Fingerprint(orig.Sys); got != want {
		t.Fatalf("original continuation diverged: %#x, want %#x", got, want)
	}
}

// TestResumeDetectsDrift checks a stale digest (code or schedule changed
// since the save) fails loudly instead of resuming a wrong run.
func TestResumeDetectsDrift(t *testing.T) {
	sys := BuildSystem(ckptParams())
	sys.Engine.Run(4_000_000)
	cp := Capture(sys, 0, 4_000_000, "test")
	cp.Digest ^= 1
	if _, err := resume(cp, cp.Cycle); err == nil {
		t.Fatal("resume accepted a tampered digest")
	}
}

// TestLoadCheckpointRejectsBadFiles covers version and consistency checks.
func TestLoadCheckpointRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	sys := BuildSystem(ckptParams())
	sys.Engine.Run(1_000_000)

	cp := Capture(sys, 0, 1_000_000, "test")
	cp.Version = 99
	path := filepath.Join(dir, "badver.json")
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("accepted unknown checkpoint version")
	}

	cp = Capture(sys, 5_000_000, 1_000_000, "test") // warmup beyond cycle
	path = filepath.Join(dir, "badwarm.json")
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("accepted warmup > cycle")
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("accepted a missing file")
	}
}
