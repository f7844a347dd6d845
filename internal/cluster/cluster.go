// Package cluster co-simulates multiple machines, reproducing the paper's
// Simics methodology: "we simulated four such machines connected by a
// simulated 100-Mbit Ethernet link" with only the application server's
// references fed to the memory-system simulator (§3.3).
//
// The coordinator advances the member engines in lockstep windows no wider
// than the network's one-way latency. That latency is the classic
// conservative-parallel-simulation lookahead: a message issued inside the
// current window can only ever be delivered in a later one, so each engine
// can safely simulate a whole window without hearing from its peers.
//
// Requests travel application server → database as engine callbacks
// (osmodel.Engine.OnExternalCall) into the database workload's delivery
// queue (internal/workload/dbserver); replies travel back on the database
// engine's op-completion callback, waking the blocked application-server
// thread at reply time + wire latency.
package cluster

import (
	"repro/internal/fault"
	"repro/internal/osmodel"
	"repro/internal/trace"
	"repro/internal/workload/dbserver"
)

// Coordinator couples an application-server engine with a database-machine
// engine over a link.
type Coordinator struct {
	app *osmodel.Engine
	db  *osmodel.Engine
	srv *dbserver.Server

	// window is the lockstep step; it must not exceed the one-way wire
	// latency (the lookahead).
	window  uint64
	latency uint64

	// Fault injection (nil = none): during a node-crash or partition window
	// aimed at dbPeer, requests are not delivered — the caller is woken
	// empty-handed after dropTimeout instead of when a reply arrives.
	faults      *fault.Injector
	dbPeer      uint8
	dropTimeout uint64

	// Requests counts app→db calls; Replies counts completed round trips;
	// Dropped counts requests lost to fault windows — on either leg:
	// DroppedReplies of them were answered by the database but lost on the
	// way back. At every lockstep window boundary the requests in flight,
	// Requests - Replies - Dropped, equal the database server's
	// QueueDepth() + InService() (the conservation test checks it).
	Requests       uint64
	Replies        uint64
	Dropped        uint64
	DroppedReplies uint64

	// OnWindow, when set, runs after each lockstep window with the window's
	// end cycle — both engines have reached t and all deliveries, replies,
	// and drops up to t are accounted. Hook for heartbeats and invariant
	// checks.
	OnWindow func(t uint64)
}

// New wires the two machines together. The application server's network
// must have the database registered with AddExternalPeer; latency is the
// one-way wire latency in cycles.
func New(app, db *osmodel.Engine, srv *dbserver.Server, latency uint64) *Coordinator {
	c := &Coordinator{
		app:     app,
		db:      db,
		srv:     srv,
		latency: latency,
		window:  latency / 2,
	}
	if c.window == 0 {
		c.window = 1
	}
	app.OnExternalCall = func(tid int, peer uint8, req, resp uint32, t uint64) {
		c.Requests++
		// A crashed or partitioned database machine never sees the request:
		// the caller blocks until its timeout and resumes empty-handed. The
		// request (and any reply already in flight the other way) is lost —
		// exactly the asymmetry a real partition produces.
		if out := c.faults.CallOutcome(c.dbPeer, t); out != fault.OK {
			c.Dropped++
			wake := t + c.dropTimeout
			if out == fault.FastFail {
				// Connection refused: the crashed machine's peer OS answers
				// with a reset after one wire round trip, not a timeout.
				wake = t + 2*c.latency
			}
			app.WakeExternal(tid, wake)
			return
		}
		srv.Enqueue(dbserver.Request{
			SourceThread: tid,
			ReqBytes:     req,
			RespBytes:    resp,
			DeliverAt:    t + c.latency,
		})
	}
	db.OnOpComplete = func(op *trace.Op, tid int, t uint64) {
		req, ok := srv.TakeRequest(op)
		if !ok {
			return
		}
		// The reply crosses the same faulty wire: a partition, crash, or
		// packet-loss window active when the database answers loses the
		// reply even though the work was done — the asymmetry that makes
		// distributed failures expensive. The caller cannot tell a lost
		// request from a lost reply; either way it resumes empty-handed
		// when its timer fires, dropTimeout after it issued the request.
		if c.faults.CallOutcome(c.dbPeer, t) != fault.OK {
			c.Dropped++
			c.DroppedReplies++
			wake := req.DeliverAt - c.latency + c.dropTimeout
			// A reply that took longer than the timeout to produce would
			// put the timer in an already-simulated window; the lockstep
			// cannot wake into the past, so the caller resumes at the
			// earliest future-safe point instead.
			if wake < t+c.latency {
				wake = t + c.latency
			}
			app.WakeExternal(req.SourceThread, wake)
			return
		}
		c.Replies++
		app.WakeExternal(req.SourceThread, t+c.latency)
	}
	return c
}

// Run advances both machines to the horizon in lookahead-bounded windows.
// The application server runs each window first: requests it issues are
// delivered at +latency — beyond the window's end — so the database can
// then safely simulate the same window; its replies likewise wake
// application threads only in later windows.
func (c *Coordinator) Run(horizon uint64) {
	for t := c.window; ; t += c.window {
		if t > horizon {
			t = horizon
		}
		c.app.Run(t)
		c.db.Run(t)
		if c.OnWindow != nil {
			c.OnWindow(t)
		}
		if t == horizon {
			return
		}
	}
}
