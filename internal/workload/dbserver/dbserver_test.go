package dbserver

import (
	"testing"

	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/simrand"
	"repro/internal/trace"
)

func build(t *testing.T) *Server {
	t.Helper()
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	comps := Components{SQL: layout.Add("dbms", 256<<10, false, ifetch.Profile{})}
	kern := layout.Add("kernel-net", 256<<10, true, ifetch.Profile{})
	rng := simrand.New(9)
	ns := netsim.NewNetStack(space, kern, rng.Derive(1))
	hcfg := jvm.DefaultConfig()
	hcfg.HeapBytes = 32 << 20
	hcfg.NewGenBytes = 6 << 20
	heap := jvm.MustNewHeap(space, hcfg)
	return New(heap, comps, ns, rng.Derive(2))
}

func TestPollWhenEmpty(t *testing.T) {
	s := build(t)
	src := s.WorkerSource(0)
	op := src.NextOp(0, 1000)
	if op.Business {
		t.Fatal("poll op counted as business")
	}
	if len(op.Items) != 1 || op.Items[0].Kind != trace.KindThink {
		t.Fatalf("poll op items: %+v", op.Items)
	}
}

func TestProcessDeliveredRequest(t *testing.T) {
	s := build(t)
	s.Enqueue(Request{SourceThread: 7, ReqBytes: 300, RespBytes: 1400, DeliverAt: 500})
	src := s.WorkerSource(0)

	// Before delivery: poll.
	if op := src.NextOp(0, 100); op.Business {
		t.Fatal("undelivered request processed early")
	}
	// After delivery: a query op.
	op := src.NextOp(0, 1000)
	if !op.Business || op.Tag != "query" {
		t.Fatalf("expected query op, got %q business=%v", op.Tag, op.Business)
	}
	if op.Instructions() < uint64(parseInstr) {
		t.Fatalf("query too cheap: %d instructions", op.Instructions())
	}
	// The inflight map routes the reply.
	req, ok := s.TakeRequest(op)
	if !ok || req.SourceThread != 7 {
		t.Fatalf("TakeRequest = %+v, %v", req, ok)
	}
	if _, again := s.TakeRequest(op); again {
		t.Fatal("TakeRequest not one-shot")
	}
	if s.Served != 1 {
		t.Fatalf("served = %d", s.Served)
	}
}

func TestEnqueueKeepsDeliveryOrder(t *testing.T) {
	s := build(t)
	// Engine order within a lockstep window is not time order.
	s.Enqueue(Request{SourceThread: 1, DeliverAt: 9_000})
	s.Enqueue(Request{SourceThread: 2, DeliverAt: 3_000})
	s.Enqueue(Request{SourceThread: 3, DeliverAt: 6_000})
	src := s.WorkerSource(0)
	var order []int
	for i := 0; i < 3; i++ {
		op := src.NextOp(0, 10_000)
		req, ok := s.TakeRequest(op)
		if !ok {
			t.Fatal("request not claimed")
		}
		order = append(order, req.SourceThread)
	}
	if order[0] != 2 || order[1] != 3 || order[2] != 1 {
		t.Fatalf("service order = %v, want delivery order [2 3 1]", order)
	}
}

func TestHeadOfLineDoesNotBlockPolling(t *testing.T) {
	s := build(t)
	s.Enqueue(Request{SourceThread: 1, DeliverAt: 50_000})
	src := s.WorkerSource(0)
	// The only queued request is in the future: the worker must poll, not
	// process it early.
	op := src.NextOp(0, 10_000)
	if op.Business {
		t.Fatal("future request processed early")
	}
	if s.QueueDepth() != 1 {
		t.Fatal("future request dropped")
	}
}

func TestBufferPoolResident(t *testing.T) {
	s := build(t)
	// The tables must be real heap objects that survive collection.
	s.heap.MinorGC(nil)
	s.heap.MajorGC(nil)
	for _, tb := range s.tables {
		if !s.heap.IsLive(tb.index) {
			t.Fatal("index collected")
		}
		for _, row := range tb.rows[:10] {
			if !s.heap.IsLive(row) {
				t.Fatal("row collected")
			}
		}
	}
}
