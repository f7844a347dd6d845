package core

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Scheduler is the studies' global work queue. Every requested study
// submits its independent simulation cells through grid (one cell = one
// deterministic single-threaded run: a timing Cell, one uniprocessor sweep
// configuration, one memory-scaling scale factor) into a single pool, so
// host cores stay busy across study boundaries instead of draining at each
// per-study barrier.
//
// Determinism: a cell's result depends only on its own parameters — each
// cell builds its own System from its own seed-derived PCG streams — and
// every cell writes into a slot fixed at submission time. Rendering reads
// the slots only after Wait, in serial figure order, so stdout is
// byte-identical to a serial run no matter how cells interleave.
//
// A Scheduler built with NewScheduler(1) (the -serial escape hatch) runs
// each cell inline at Submit time, in submission order — exactly the old
// one-sweep-at-a-time behavior.
type Scheduler struct {
	// Progress, when non-nil, is credited with one run per finished cell;
	// cells that know their simulated cycles credit those too.
	Progress *obs.Heartbeat

	serial bool

	mu      sync.Mutex
	queue   []func()
	workers int
	max     int
	wg      sync.WaitGroup
}

// NewScheduler returns a scheduler running at most workers cells
// concurrently. workers <= 1 yields the serial (inline) scheduler.
func NewScheduler(workers int) *Scheduler {
	if workers <= 1 {
		return &Scheduler{serial: true}
	}
	return &Scheduler{max: workers}
}

// DefaultWorkers is the scheduler width cmd/figures uses: one worker per
// host core.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Submit enqueues one cell; grid is its only caller. Serial schedulers run
// the cell before returning; concurrent ones start a worker if the pool is
// not yet at width. Workers take cells first in, first out.
func (s *Scheduler) Submit(fn func()) {
	if s.serial {
		fn()
		return
	}
	s.mu.Lock()
	s.queue = append(s.queue, fn)
	spawn := s.workers < s.max
	if spawn {
		s.workers++
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if spawn {
		go s.work()
	}
}

func (s *Scheduler) work() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.workers--
			s.mu.Unlock()
			return
		}
		fn := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		fn()
	}
}

// Wait blocks until every submitted cell has finished. More cells may be
// submitted afterwards; Wait can be called again.
func (s *Scheduler) Wait() {
	if s.serial {
		return
	}
	s.wg.Wait()
}

// grid submits cells 0..n-1 in index order and returns their result slots:
// slot i holds cell(i) once s has drained. Each finished cell credits one
// run to s.Progress.
func grid[T any](s *Scheduler, n int, cell func(i int) T) []T {
	out := make([]T, n)
	for i := range n {
		s.Submit(func() {
			out[i] = cell(i)
			s.Progress.AddRun()
		})
	}
	return out
}

// runPrivate runs schedule's cells on a private scheduler sized to the host
// and returns its result once every cell has finished.
func runPrivate[T any](schedule func(*Scheduler) T) T {
	s := NewScheduler(DefaultWorkers())
	r := schedule(s)
	s.Wait()
	return r
}
