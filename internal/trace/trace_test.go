package trace

import (
	"testing"
	"testing/quick"
)

func TestRecorderCoalescesInstr(t *testing.T) {
	r := NewRecorder("x", true)
	r.Instr(1, 10)
	r.Instr(1, 20)
	r.Instr(2, 5)
	r.Instr(2, 0) // dropped
	op := r.Finish()
	if len(op.Items) != 2 {
		t.Fatalf("items = %d, want 2 (coalesced)", len(op.Items))
	}
	if op.Items[0].N != 30 || op.Items[1].N != 5 {
		t.Fatalf("counts = %d,%d", op.Items[0].N, op.Items[1].N)
	}
	if op.Instructions() != 35 {
		t.Fatalf("Instructions = %d", op.Instructions())
	}
}

func TestRecorderNoCoalesceAcrossKinds(t *testing.T) {
	r := NewRecorder("x", false)
	r.Instr(1, 10)
	r.Read(0x1000, 8)
	r.Instr(1, 10)
	op := r.Finish()
	if len(op.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(op.Items))
	}
}

func TestOpMetadata(t *testing.T) {
	r := NewRecorder("neworder", true)
	op := r.Finish()
	if op.Tag != "neworder" || !op.Business {
		t.Fatal("metadata lost")
	}
}

// dataRefs counts the op's own data-reference items (not bytes), excluding
// GC pauses.
func dataRefs(op *Op) int {
	n := 0
	for _, it := range op.Items {
		if it.Kind == KindRead || it.Kind == KindWrite {
			n++
		}
	}
	return n
}

// TestDataRefs: each read and write is one data-reference item; instruction
// and lock items are not.
func TestDataRefs(t *testing.T) {
	r := NewRecorder("x", true)
	r.Read(0x1000, 8)
	r.Write(0x2000, 16)
	r.Instr(0, 100)
	r.LockAcquire(1, 0x3000)
	r.LockRelease(1, 0x3000)
	op := r.Finish()
	if n := dataRefs(op); n != 2 {
		t.Fatalf("data refs = %d", n)
	}
}

func TestGCInstructionsCounted(t *testing.T) {
	gcRec := NewRecorder("gc", false)
	gcRec.Instr(3, 500)
	gcRec.Read(0x5000, 64)
	gcOp := gcRec.Finish()
	gc := &GC{Items: gcOp.Items, LiveBytes: 1 << 20}

	r := NewRecorder("alloc-heavy", true)
	r.Instr(1, 100)
	r.GCPause(gc)
	op := r.Finish()
	if op.Instructions() != 600 {
		t.Fatalf("Instructions = %d, want 600 (incl. GC)", op.Instructions())
	}
}

func TestNetCallFields(t *testing.T) {
	r := NewRecorder("x", true)
	r.NetCall(2, 512, 4096)
	op := r.Finish()
	it := op.Items[0]
	if it.Kind != KindNetCall || it.Peer != 2 || it.ID != 512 || it.Aux != 4096 {
		t.Fatalf("netcall item wrong: %+v", it)
	}
}

func TestThinkZeroDropped(t *testing.T) {
	r := NewRecorder("x", true)
	r.Think(0)
	r.Think(100)
	op := r.Finish()
	if len(op.Items) != 1 || op.Items[0].N != 100 {
		t.Fatalf("think items wrong: %+v", op.Items)
	}
}

func TestFinishResets(t *testing.T) {
	r := NewRecorder("a", true)
	r.Instr(1, 5)
	op1 := r.Finish()
	if len(op1.Items) != 1 {
		t.Fatal("first op wrong")
	}
}

func TestQuickInstructionTotals(t *testing.T) {
	f := func(counts []uint16) bool {
		r := NewRecorder("q", true)
		var want uint64
		for i, c := range counts {
			r.Instr(2, uint32(c))
			want += uint64(c)
			if i%3 == 0 {
				r.Read(uint64(i)*64, 8) // break coalescing sometimes
			}
		}
		return r.Finish().Instructions() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
