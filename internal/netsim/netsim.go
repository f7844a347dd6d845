// Package netsim models the 100-Mbit Ethernet connecting ECperf's tiers and
// the kernel network stack the application server runs for every tier
// crossing.
//
// The paper attributes ECperf's large and growing system time (Figure 5,
// ~30% at 15 processors) to the operating system's networking code: each
// BBop makes several synchronous round trips to the database and supplier
// tiers, and the kernel path is long, touches shared kernel data, and
// serializes on kernel locks. NetStack reproduces exactly that: every call
// records kernel-mode instruction segments, references to hot shared kernel
// lines, and an adaptive (spin-then-block) kernel lock — then a blocking
// round trip over a latency/bandwidth link to a queueing peer.
package netsim

import (
	"repro/internal/fault"
	"repro/internal/ifetch"
	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// Responder models a remote machine: given a request arriving at `arrive`,
// it returns when the response leaves the peer, and how the visit split into
// queueing (waiting for a peer worker) and service. Implementations queue
// internally (see internal/db).
type Responder interface {
	Respond(arrive uint64, reqBytes, respBytes uint32) (done, queue, service uint64)
}

// RTDetail is the remote decomposition of one round trip.
type RTDetail struct {
	Queue   uint64 // cycles the request waited for a peer worker
	Service uint64 // peer service time
}

// Peer machine indices on the simulated Ethernet.
const (
	PeerDatabase uint8 = 1
	PeerSupplier uint8 = 2
)

// The link is full-duplex 100-Mbit Ethernet against a 250 MHz clock:
// 12.5 MB/s = 0.05 B/cycle, with ~50 µs one-way software+wire latency.
const (
	LinkLatencyCycles uint64  = 12_500 // one-way propagation + interrupt cost
	linkBytesPerCycle float64 = 0.05   // bandwidth
)

// TransferCycles returns the cycles to move n bytes one way.
func TransferCycles(n uint32) uint64 {
	return LinkLatencyCycles + uint64(float64(n)/linkBytesPerCycle)
}

// Network is one machine's view of the world: the link and the peers on it.
type Network struct {
	peers      map[uint8]Responder
	externalDB bool
	faults     *fault.Injector
}

// NewNetwork returns a network with no peers.
func NewNetwork() *Network {
	return &Network{peers: make(map[uint8]Responder)}
}

// AddPeer registers machine `id` as a timing model (internal/db).
func (n *Network) AddPeer(id uint8, r Responder) { n.peers[id] = r }

// CoSimulateDatabase registers the database as a co-simulated machine:
// calls to it do not resolve locally; the cluster coordinator delivers the
// request to the other machine's engine and wakes the caller when the real
// reply comes back (internal/cluster).
func (n *Network) CoSimulateDatabase() { n.externalDB = true }

// External reports whether the peer is co-simulated.
func (n *Network) External(id uint8) bool { return n.externalDB && id == PeerDatabase }

// SetFaults attaches a fault injector; latency-spike windows in its
// schedule then stretch round-trip transfer times. nil detaches.
func (n *Network) SetFaults(inj *fault.Injector) { n.faults = inj }

// RoundTrip computes when a synchronous call issued at `now` completes:
// request transfer, peer service (with queueing), response transfer. The
// detail is the peer's queue/service decomposition. Unknown peers answer
// after a bare round trip with a zero detail, so a miswired experiment
// fails loudly in results rather than silently hanging.
func (n *Network) RoundTrip(peer uint8, now uint64, reqBytes, respBytes uint32) (uint64, RTDetail) {
	reqXfer := TransferCycles(reqBytes)
	respXfer := TransferCycles(respBytes)
	// A latency-spike fault stretches the wire time both ways. The factor is
	// sampled at issue time: a window opening mid-flight catches the next
	// call, which is plenty at 50 µs one-way latency.
	if f := n.faults.LinkFactor(peer, now); f > 1 {
		reqXfer = uint64(float64(reqXfer) * f)
		respXfer = uint64(float64(respXfer) * f)
	}
	arrive := now + reqXfer
	done, det := arrive, RTDetail{}
	if r, ok := n.peers[peer]; ok {
		done, det.Queue, det.Service = r.Respond(arrive, reqBytes, respBytes)
	}
	return done + respXfer, det
}

// The kernel network path on the measured machine.
const (
	// sendInstr/recvInstr are the base kernel path lengths per message
	// (syscall, socket, TCP/IP, driver). perByteInstr adds copy cost.
	sendInstr    uint32  = 350
	recvInstr    uint32  = 400
	perByteInstr float64 = 0.04
	// hotLines is the number of shared kernel data lines (protocol state,
	// socket tables) touched on every call — the source of kernel-mode
	// sharing misses.
	hotLines = 3
	// bufferBytes is the per-call packet buffer footprint.
	bufferBytes uint32 = 2048
)

// kernelLockBase namespaces kernel lock IDs away from JVM monitor IDs.
const kernelLockBase = 1 << 48

// NetStack is the measured machine's kernel network stack.
type NetStack struct {
	comp     *ifetch.Component // kernel code component
	lockID   uint64
	lockAddr mem.Addr
	hot      []mem.Addr
	bufBase  mem.Addr
	bufSize  uint64
	bufNext  uint64
	rng      *simrand.Rand
}

// NewNetStack carves kernel data out of the machine's address space. comp
// must be a kernel component registered in the machine's code layout.
func NewNetStack(space *mem.AddrSpace, comp *ifetch.Component, rng *simrand.Rand) *NetStack {
	if !comp.Kernel {
		panic("netsim: network stack component must be a kernel component")
	}
	lockRegion := space.Reserve("kernel:netlock", mem.LineBytes)
	hotRegion := space.Reserve("kernel:netdata", uint64(hotLines)*mem.LineBytes)
	bufRegion := space.Reserve("kernel:netbuf", 96<<10) // recycled mbuf pool
	ns := &NetStack{
		comp:     comp,
		lockID:   kernelLockBase + 1,
		lockAddr: lockRegion.Base,
		bufBase:  bufRegion.Base,
		bufSize:  bufRegion.Size,
		rng:      rng,
	}
	for i := 0; i < hotLines; i++ {
		ns.hot = append(ns.hot, hotRegion.Base+uint64(i)*mem.LineBytes)
	}
	return ns
}

// kernelSection records one kernel network path. Protocol state is updated
// under the adaptive kernel lock (a short hold: header processing only);
// the payload copy through a rotating packet buffer happens outside the
// lock, as in any real stack — holding a global lock across data copies
// would convoy the whole machine.
func (ns *NetStack) kernelSection(rec *trace.Recorder, instr uint32, bytes uint32) {
	rec.LockAcquireSpin(ns.lockID, ns.lockAddr)
	rec.Write(ns.lockAddr, 8)
	// Shared protocol state (read-mostly, some updates): header handling.
	for i, a := range ns.hot {
		if i%3 == 0 {
			rec.Write(a, 8)
		} else {
			rec.Read(a, 8)
		}
	}
	rec.Instr(ns.comp.ID, instr/2)
	rec.Write(ns.lockAddr, 8)
	rec.LockRelease(ns.lockID, ns.lockAddr)

	// Payload copy, unlocked.
	if bytes > 0 {
		if ns.bufNext+uint64(bytes) > ns.bufSize {
			ns.bufNext = 0
		}
		rec.Write(ns.bufBase+ns.bufNext, bytes)
		ns.bufNext += uint64(bytes)
	}
	rec.Instr(ns.comp.ID, instr/2+uint32(perByteInstr*float64(bytes)))
}

// Call records a full synchronous round trip to peer: kernel send path,
// blocking wait for the response, kernel receive path.
func (ns *NetStack) Call(rec *trace.Recorder, peer uint8, reqBytes, respBytes uint32) {
	ns.kernelSection(rec, sendInstr, min(reqBytes, bufferBytes))
	rec.NetCall(peer, reqBytes, respBytes)
	ns.kernelSection(rec, recvInstr, min(respBytes, bufferBytes))
}

// ReceiveRequest records the kernel receive path for an inbound client
// request (no blocking: the request has already arrived when the worker
// picks it up).
func (ns *NetStack) ReceiveRequest(rec *trace.Recorder, bytes uint32) {
	ns.kernelSection(rec, recvInstr, min(bytes, bufferBytes))
}

// SendResponse records the kernel send path for an outbound response to a
// client (fire-and-forget from the worker's point of view).
func (ns *NetStack) SendResponse(rec *trace.Recorder, bytes uint32) {
	ns.kernelSection(rec, sendInstr, min(bytes, bufferBytes))
}
