package db

import (
	"testing"

	"repro/internal/simrand"
)

func twoWorkers() Config {
	return Config{Workers: 2, BaseServiceCycles: 1000}
}

// draws returns the first n service times a server seeded like
// simrand.New(seed) gives requests of mean cycles.
func draws(seed, cycles uint64, n int) []uint64 {
	r := simrand.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = Jitter(cycles, r)
	}
	return out
}

// respond returns only the completion time of one request.
func respond(s *Server, arrive uint64, reqBytes, respBytes uint32) uint64 {
	done, _, _ := s.Respond(arrive, reqBytes, respBytes)
	return done
}

func TestSingleRequest(t *testing.T) {
	s := NewServer(twoWorkers(), simrand.New(1))
	if done, want := respond(s, 100, 10, 10), 100+draws(1, 1000, 1)[0]; done != want {
		t.Fatalf("done = %d, want %d", done, want)
	}
	if s.Served() != 1 {
		t.Fatalf("served = %d", s.Served())
	}
}

func TestQueueingWhenSaturated(t *testing.T) {
	s := NewServer(twoWorkers(), simrand.New(1))
	svc := draws(1, 1000, 3)
	// Three simultaneous arrivals on two workers: the third queues for the
	// worker that frees first.
	d1 := respond(s, 0, 0, 0)
	d2 := respond(s, 0, 0, 0)
	d3, queue, service := s.Respond(0, 0, 0)
	if d1 != svc[0] || d2 != svc[1] {
		t.Fatalf("first two = %d, %d, want %d, %d", d1, d2, svc[0], svc[1])
	}
	free := min(svc[0], svc[1])
	if d3 != free+svc[2] || queue != free || service != svc[2] {
		t.Fatalf("queued request = (%d, %d, %d), want (%d, %d, %d)", d3, queue, service, free+svc[2], free, svc[2])
	}
}

func TestIdleWorkersServeImmediately(t *testing.T) {
	s := NewServer(twoWorkers(), simrand.New(1))
	respond(s, 0, 0, 0)
	if done, want := respond(s, 5000, 0, 0), 5000+draws(1, 1000, 2)[1]; done != want {
		t.Fatalf("late arrival done = %d, want %d", done, want)
	}
}

func TestPerByteCost(t *testing.T) {
	cfg := twoWorkers()
	cfg.PerByteCycles = 2
	s := NewServer(cfg, simrand.New(1))
	if done, want := respond(s, 0, 100, 50), draws(1, 1000+300, 1)[0]; done != want {
		t.Fatalf("done = %d, want %d", done, want)
	}
}

func TestJitterVariesService(t *testing.T) {
	s := NewServer(twoWorkers(), simrand.New(2))
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		seen[respond(s, uint64(i)*100_000, 0, 0)-uint64(i)*100_000] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jittered service produced only %d distinct times", len(seen))
	}
}

func TestUtilization(t *testing.T) {
	s := NewServer(twoWorkers(), simrand.New(1))
	if s.Utilization() != 0 {
		t.Fatal("idle server utilization nonzero")
	}
	respond(s, 0, 0, 0) // one worker busy for the whole span, the other idle
	if u := s.Utilization(); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestZeroWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewServer(Config{Workers: 0}, simrand.New(1))
}

func TestDefaultsSane(t *testing.T) {
	if dbc := DefaultDatabaseConfig(); dbc.Workers <= 0 {
		t.Fatal("default workers not positive")
	}
}
