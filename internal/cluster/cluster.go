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
	"repro/internal/netsim"
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

	// Requests counts app→db calls; Replies counts completed round trips.
	// At every lockstep window boundary the requests in flight,
	// Requests - Replies, equal the database server's
	// QueueDepth() + InService() (the conservation test checks it).
	Requests uint64
	Replies  uint64

	// OnWindow, when set, runs after each lockstep window with the window's
	// end cycle — both engines have reached t and all deliveries and
	// replies up to t are accounted. Hook for heartbeats and invariant
	// checks.
	OnWindow func(t uint64)
}

// latency is the one-way wire latency; window is the lockstep step, which
// must not exceed it (the lookahead).
const (
	latency = netsim.LinkLatencyCycles
	window  = latency / 2
)

// New wires the two machines together. The application server's network
// must have the database co-simulated (netsim.Network.CoSimulateDatabase).
func New(app, db *osmodel.Engine, srv *dbserver.Server) *Coordinator {
	c := &Coordinator{app: app, db: db, srv: srv}
	app.OnExternalCall = func(tid int, peer uint8, req, resp uint32, t uint64) {
		c.Requests++
		srv.Enqueue(dbserver.Request{
			SourceThread: tid,
			ReqBytes:     req,
			RespBytes:    resp,
			DeliverAt:    t + latency,
		})
	}
	db.OnOpComplete = func(op *trace.Op, tid int, t uint64) {
		req, ok := srv.TakeRequest(op)
		if !ok {
			return
		}
		c.Replies++
		app.WakeExternal(req.SourceThread, t+latency)
	}
	return c
}

// Run advances both machines to the horizon in lookahead-bounded windows.
// The application server runs each window first: requests it issues are
// delivered at +latency — beyond the window's end — so the database can
// then safely simulate the same window; its replies likewise wake
// application threads only in later windows.
func (c *Coordinator) Run(horizon uint64) {
	for t := window; ; t += window {
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
