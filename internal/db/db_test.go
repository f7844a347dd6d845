package db

import (
	"testing"

	"repro/internal/simrand"
)

func deterministic() Config {
	return Config{Workers: 2, BaseServiceCycles: 1000, PerByteCycles: 0, Jitter: 0}
}

// respond returns only the completion time of one request.
func respond(s *Server, arrive uint64, reqBytes, respBytes uint32) uint64 {
	done, _, _ := s.Respond(arrive, reqBytes, respBytes)
	return done
}

func TestSingleRequest(t *testing.T) {
	s := NewServer(deterministic(), simrand.New(1))
	if done := respond(s, 100, 10, 10); done != 1100 {
		t.Fatalf("done = %d, want 1100", done)
	}
	if s.Served() != 1 {
		t.Fatalf("served = %d", s.Served())
	}
}

func TestQueueingWhenSaturated(t *testing.T) {
	s := NewServer(deterministic(), simrand.New(1))
	// Three simultaneous arrivals on two workers: the third queues.
	d1 := respond(s, 0, 0, 0)
	d2 := respond(s, 0, 0, 0)
	d3, queue, service := s.Respond(0, 0, 0)
	if d1 != 1000 || d2 != 1000 {
		t.Fatalf("first two = %d, %d", d1, d2)
	}
	if d3 != 2000 || queue != 1000 || service != 1000 {
		t.Fatalf("queued request = (%d, %d, %d), want (2000, 1000, 1000)", d3, queue, service)
	}
}

func TestIdleWorkersServeImmediately(t *testing.T) {
	s := NewServer(deterministic(), simrand.New(1))
	respond(s, 0, 0, 0)
	if done := respond(s, 5000, 0, 0); done != 6000 {
		t.Fatalf("late arrival done = %d, want 6000", done)
	}
}

func TestPerByteCost(t *testing.T) {
	cfg := deterministic()
	cfg.PerByteCycles = 2
	s := NewServer(cfg, simrand.New(1))
	if done := respond(s, 0, 100, 50); done != 1000+300 {
		t.Fatalf("done = %d", done)
	}
}

func TestJitterVariesService(t *testing.T) {
	cfg := deterministic()
	cfg.Jitter = 0.5
	s := NewServer(cfg, simrand.New(2))
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		seen[respond(s, uint64(i)*100_000, 0, 0)-uint64(i)*100_000] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jittered service produced only %d distinct times", len(seen))
	}
}

func TestUtilization(t *testing.T) {
	s := NewServer(deterministic(), simrand.New(1))
	if s.Utilization() != 0 {
		t.Fatal("idle server utilization nonzero")
	}
	respond(s, 0, 0, 0) // one worker busy 0..1000, the other idle
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
	dbc, sup := DefaultDatabaseConfig(), DefaultSupplierConfig()
	if dbc.Workers <= 0 || sup.Workers <= 0 {
		t.Fatal("default workers not positive")
	}
	if sup.BaseServiceCycles <= dbc.BaseServiceCycles {
		t.Fatal("supplier (XML parsing on a Netra) should be slower than the cached database")
	}
}
