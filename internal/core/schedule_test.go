package core

import (
	"testing"

	"repro/internal/obs"
)

// TestGrid: serial and concurrent schedulers both return every cell's
// result in its index slot, and the scheduler's heartbeat counts one run
// per cell.
func TestGrid(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 4} {
		s := NewScheduler(workers)
		s.Progress = new(obs.Heartbeat)
		out := grid(s, n, func(i int) int { return i * i })
		s.Wait()
		if len(out) != n {
			t.Fatalf("workers=%d: %d slots, want %d", workers, len(out), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
		if runs := s.Progress.Runs.Load(); runs != n {
			t.Fatalf("workers=%d: heartbeat counted %d runs, want %d", workers, runs, n)
		}
	}
}
