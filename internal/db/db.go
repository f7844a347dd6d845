// Package db models the remote tiers of the ECperf deployment as queueing
// servers: the database machine (a second E6000 whose small database fit
// entirely in its buffer pool — §3.2 of the paper) and the supplier
// emulator (a Netra running servlets).
//
// The paper's measurements come exclusively from the application-server
// machine, so the remote tiers only need to be *timing* models: a request
// arrives, possibly queues for one of the machine's workers, is serviced
// for a cost drawn from the query class, and the response leaves. No remote
// memory references enter the measured hierarchy, exactly as the paper
// filtered them out of its Simics traces.
package db

import (
	"repro/internal/fault"
	"repro/internal/simrand"
)

// Config parameterizes a remote tier.
type Config struct {
	// Workers is the machine's service parallelism (CPU count).
	Workers int
	// BaseServiceCycles is the mean per-request service cost.
	BaseServiceCycles uint64
	// PerByteCycles adds cost proportional to request+response size.
	PerByteCycles float64
	// Jitter is the coefficient of variation of service time (exponential
	// component); 0 means deterministic service.
	Jitter float64
}

// DefaultDatabaseConfig models the ECperf database: fully cached working
// set, fast point queries, moderate parallelism. "ECperf does not overly
// stress the database" (§2.2) — the database must keep up, not dominate.
func DefaultDatabaseConfig() Config {
	return Config{Workers: 16, BaseServiceCycles: 60_000, PerByteCycles: 2, Jitter: 0.3}
}

// Server is a deterministic queueing model of one remote machine. It
// implements netsim.Responder.
type Server struct {
	cfg     Config
	free    []uint64 // per-worker next-free time
	rng     *simrand.Rand
	served  uint64
	busy    uint64 // total busy cycles, for utilization reporting
	lastEnd uint64
	faults  *fault.Injector
	peer    uint8
}

// NewServer builds a server; it panics on a non-positive worker count.
func NewServer(cfg Config, rng *simrand.Rand) *Server {
	if cfg.Workers <= 0 {
		panic("db: server needs at least one worker")
	}
	return &Server{cfg: cfg, free: make([]uint64, cfg.Workers), rng: rng}
}

// Respond queues the request on the earliest-free worker and returns the
// completion time, the cycles it queued for a worker and the cycles in
// service.
func (s *Server) Respond(arrive uint64, reqBytes, respBytes uint32) (done, queue, service uint64) {
	// Earliest-free worker.
	w := 0
	for i := 1; i < len(s.free); i++ {
		if s.free[i] < s.free[w] {
			w = i
		}
	}
	start := arrive
	if s.free[w] > start {
		start = s.free[w]
	}
	service = s.cfg.BaseServiceCycles +
		uint64(s.cfg.PerByteCycles*float64(reqBytes+respBytes))
	if s.cfg.Jitter > 0 {
		service = uint64(float64(service) * (1 - s.cfg.Jitter + s.rng.Exp(s.cfg.Jitter)))
	}
	// Fault windows inflate service time: a lock storm multiplies it for the
	// window's span, and a node crash leaves a cold-cache recovery ramp that
	// decays back to 1 after the machine comes back.
	if f := s.faults.ServiceFactor(s.peer, arrive); f > 1 {
		service = uint64(float64(service) * f)
	}
	done = start + service
	s.free[w] = done
	s.served++
	s.busy += service
	if done > s.lastEnd {
		s.lastEnd = done
	}
	return done, start - arrive, service
}

// SetFaults attaches a fault injector; db-lock-storm windows aimed at
// `peer` (this server's network id) then multiply service times, and
// node-crash windows leave a cold-cache recovery ramp. nil detaches.
func (s *Server) SetFaults(inj *fault.Injector, peer uint8) {
	s.faults = inj
	s.peer = peer
}

// Served returns the number of requests handled.
func (s *Server) Served() uint64 { return s.served }

// Utilization returns mean busy fraction across workers up to the last
// completion, or 0 before any request.
func (s *Server) Utilization() float64 {
	if s.lastEnd == 0 {
		return 0
	}
	return float64(s.busy) / (float64(s.lastEnd) * float64(len(s.free)))
}
