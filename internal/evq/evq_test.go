package evq

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPopOrder interleaves pushes and pops at random and checks every pop
// against a sorted reference: the earliest (At, Seq) pending item. Small At
// ranges force many ties broken by Seq.
func TestPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var q Queue[int]
		var ref []Item[int]
		seq := uint64(0)
		atRange := 1 + rng.Intn(50)
		for step := 0; step < 500; step++ {
			if len(ref) == 0 || rng.Intn(3) > 0 {
				seq++
				it := Item[int]{At: uint64(rng.Intn(atRange)), Seq: seq, V: int(seq)}
				q.Push(it)
				ref = append(ref, it)
				continue
			}
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].At != ref[j].At {
					return ref[i].At < ref[j].At
				}
				return ref[i].Seq < ref[j].Seq
			})
			if m := q.Min(); m != ref[0] {
				t.Fatalf("trial %d step %d: Min = %+v, want %+v", trial, step, m, ref[0])
			}
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("trial %d step %d: Pop = %+v, want %+v", trial, step, got, ref[0])
			}
			ref = ref[1:]
			if q.Len() != len(ref) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, q.Len(), len(ref))
			}
		}
	}
}

// TestPopClearsSlot: a popped pointer must not stay reachable from the
// queue's backing array.
func TestPopClearsSlot(t *testing.T) {
	var q Queue[*int]
	x, y := new(int), new(int)
	q.Push(Item[*int]{At: 1, V: x})
	q.Push(Item[*int]{At: 2, V: y})
	q.Pop()
	q.Pop()
	if full := q[:2]; full[0].V != nil || full[1].V != nil {
		t.Fatal("popped values still referenced by the backing array")
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue[*int]
	v := new(int)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		q.Push(Item[*int]{At: uint64(rng.Intn(1 << 20)), Seq: uint64(i), V: v})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := q.Pop()
		it.At += uint64(rng.Intn(1 << 16))
		it.Seq = uint64(64 + i)
		q.Push(it)
	}
}
