// Package volano models a VolanoMark-like chat server, the related-work
// comparison point of the paper's §6:
//
//	"VolanoMark behaves quite differently than ECperf or SPECjbb because
//	 of the high number of threads it creates. In VolanoMark, the server
//	 creates a new thread for each client connection. The application
//	 server that we have used, in contrast, shares threads between client
//	 connections. As a result, the middle tier of the ECperf benchmark
//	 spends much less time in the kernel than VolanoMark. SPECjbb also has
//	 a much lower kernel component than VolanoMark."
//
// The model is VolanoMark's loopback chat benchmark: rooms of connected
// users; every message a user sends is broadcast by the server to every
// other user in the room, each delivery a separate kernel send. One server
// thread per connection, exactly the design the paper contrasts with
// thread pooling. Nearly all of the per-message work is kernel networking,
// which is what makes its kernel component dwarf the middleware
// benchmarks'.
package volano

import (
	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/netsim"
	"repro/internal/osmodel"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// The VolanoMark-flavored setup.
const (
	// rooms and usersPerRoom shape the fan-out (VolanoMark's default room
	// size is 20: one inbound message causes 19 outbound deliveries).
	rooms        = 4
	usersPerRoom = 20
	// messageBytes is the chat message size.
	messageBytes uint32 = 256
	// procInstr is the user-mode work per message (parsing, room lookup,
	// history append) — deliberately small; this benchmark is all kernel.
	procInstr uint32 = 9_000
	// thinkCycles is the client pacing between a connection's messages.
	thinkCycles uint32 = 400_000
	// historyBytes is the per-message allocation (message object + history
	// entry).
	historyBytes uint32 = 512
)

// Components are the code components the chat server executes.
type Components struct {
	App *ifetch.Component // the chat server + JVM
}

// Workload is one simulated chat server.
type Workload struct {
	comps Components
	heap  *jvm.Heap
	ns    *netsim.NetStack
	rng   *simrand.Rand

	// roomObjs[i] is the member list object for room i (read on every
	// broadcast — shared across all of the room's connection threads).
	roomObjs []jvm.ObjectID
	// Messages counts delivered messages (the VolanoMark score unit).
	Messages uint64
}

// New builds the rooms. Construction traffic is discarded, as for the
// other workloads.
func New(heap *jvm.Heap, comps Components, ns *netsim.NetStack, rng *simrand.Rand) *Workload {
	rec := trace.NewRecorder("volano-build")
	w := &Workload{comps: comps, heap: heap, ns: ns, rng: rng}
	for i := 0; i < rooms; i++ {
		room := heap.AllocPermanent(rec, uint32(8*usersPerRoom+jvm.HeaderBytes))
		w.roomObjs = append(w.roomObjs, room)
	}
	return w
}

// Connections returns the total connection (= server thread) count.
func (w *Workload) Connections() int { return rooms * usersPerRoom }

// connSource drives one connection's server thread.
type connSource struct {
	w    *Workload
	room int
	rng  *simrand.Rand
	// rec is the connection's reusable recorder: the engine consumes each
	// op fully before asking for the next.
	rec *trace.Recorder
}

// Source returns the OpSource for connection i (thread-per-connection:
// every connection gets its own).
func (w *Workload) Source(i int) osmodel.OpSource {
	return &connSource{
		w:    w,
		room: i / usersPerRoom,
		rng:  w.rng.Derive(uint64(i)),
		rec:  trace.NewRecorder(""),
	}
}

// NextOp records one inbound chat message and its room-wide broadcast.
func (s *connSource) NextOp(tid int, now uint64) *trace.Op {
	w := s.w
	rec := s.rec
	rec.Reset("message", true)

	// Client pacing, then the inbound message arrives.
	rec.Think(thinkCycles + uint32(s.rng.Intn(int(thinkCycles/2)+1)))
	w.ns.ReceiveRequest(rec, messageBytes)

	// Minimal user-mode work: parse, look up the room, append to history.
	rec.Instr(w.comps.App.ID, procInstr)
	w.heap.ReadObject(rec, w.roomObjs[s.room])
	w.heap.SetAllocSite(tid, "volano.history")
	w.heap.Alloc(rec, tid, historyBytes, 0)
	w.heap.SetAllocSite(tid, "")

	// Broadcast: one kernel send per other member of the room. This
	// fan-out is the whole story — ~95% of the path is kernel code.
	for m := 1; m < usersPerRoom; m++ {
		w.ns.SendResponse(rec, messageBytes)
	}
	w.Messages += uint64(usersPerRoom - 1)

	w.heap.ClearStack(tid)
	return rec.Handoff()
}
