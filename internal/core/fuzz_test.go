package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadCheckpoint asserts the checkpoint loader's contract: an arbitrary
// file is either rejected with an error, or loads into a checkpoint that
// survives Save and LoadCheckpoint unchanged — never a panic.
func FuzzLoadCheckpoint(f *testing.F) {
	seeds := []string{
		// Well-formed.
		`{"version":1,"command":"ecperfsim","params":{"Kind":1,"Processors":2,"Seed":42},"warmup":100,"cycle":300,"digest":7}`,
		`{"version":1,"params":{"Kind":0,"Processors":8,"MemModel":1,"MemCurve":{"window_cycles":100000,"buckets":8,"line_cycles":2.5}},"cycle":1}`,
		`{"version":1,"params":{"Kind":1,"FaultSchedule":{"events":[{"kind":"db-lock-storm","at":10,"duration":5,"peer":2,"magnitude":30}]}}}`,
		`{"version":1}`,
		// Parameters the loader passes on for the run to reject.
		`{"version":1,"params":{"Kind":7,"Processors":40,"MemModel":9}}`,
		// Rejected: wrong version, warm-up past the cycle, broken shapes.
		`{"version":2}`,
		`{"version":1,"warmup":10,"cycle":5}`,
		`{"version":1,"params":{"Kind":"ECperf"}}`,
		`{"version":1,"params":{"Kind":1,"FaultPolicy":{"TimeoutCycles":1000}}}`, // unknown key
		`{"version":1,"params":{"FaultSchedule":{"events":[{"kind":"meteor","at":1,"duration":1}]}}}`,
		`{"version":1,"params":`,
		`[]`,
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(in)
		if err != nil {
			return
		}
		if err := cp.Save(out); err != nil {
			t.Fatalf("accepted checkpoint does not save: %v", err)
		}
		back, err := LoadCheckpoint(out)
		if err != nil {
			t.Fatalf("saved checkpoint does not load: %v", err)
		}
		if !reflect.DeepEqual(back, cp) {
			t.Fatalf("save/load changed the checkpoint:\n%+v\n%+v", cp, back)
		}
	})
}
