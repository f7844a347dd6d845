package trace

import "testing"

// FuzzRecorderTotals drives the recorder with arbitrary item mixes and
// checks that instruction totals and item balance survive coalescing.
func FuzzRecorderTotals(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 0, 20, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRecorder("fuzz")
		var wantInstr uint64
		var wantRefs int
		for i := 0; i+1 < len(data); i += 2 {
			switch data[i] % 4 {
			case 0:
				n := uint32(data[i+1])
				r.Instr(1, n)
				wantInstr += uint64(n)
			case 1:
				r.Read(uint64(data[i+1])*64, 8)
				wantRefs++
			case 2:
				r.Write(uint64(data[i+1])*64, 8)
				wantRefs++
			case 3:
				r.Think(uint32(data[i+1]))
			}
		}
		op := r.Finish()
		if op.Instructions() != wantInstr {
			t.Fatalf("instructions %d, want %d", op.Instructions(), wantInstr)
		}
		if n := dataRefs(op); n != wantRefs {
			t.Fatalf("refs %d, want %d", n, wantRefs)
		}
	})
}
