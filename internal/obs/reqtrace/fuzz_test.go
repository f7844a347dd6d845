package reqtrace

import (
	"math"
	"testing"
)

// FuzzParseObjectives: every objective the -slo parser accepts must be
// usable by the SLO engine — a finite error budget strictly between 0 and
// 1, and for a latency objective a non-zero cycle threshold.
func FuzzParseObjectives(f *testing.F) {
	for _, spec := range []string{
		"p99<=40ms",
		"p99<=40ms,err<=2%",
		"p99<=20ms",
		"p99<=25ms",
		"p99<=40ms,neworder:p95<=20ms,err<=2%",
		"p99<=40ms, neworder:p95<=20ms, err<=2%, p50<=500us, p999<=10000000cy",
		"p99<=1ms,err<=5%",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseObjectives(spec)
		if err != nil {
			return
		}
		for _, o := range objs {
			if math.IsNaN(o.Budget) || math.IsInf(o.Budget, 0) || o.Budget <= 0 || o.Budget >= 1 {
				t.Fatalf("%q: accepted budget %v outside (0, 1)", o.Spec, o.Budget)
			}
			if o.Quantile != 0 && o.ThresholdCycles == 0 {
				t.Fatalf("%q: accepted latency objective with a zero threshold", o.Spec)
			}
		}
	})
}
