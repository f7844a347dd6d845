package report

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/osmodel"
)

// The lines the single-run drivers (jbbsim, ecperfsim) print alike.

// Tags lists a run's business-operation tags in order.
func Tags(opsByTag map[string]uint64) []string {
	tags := make([]string, 0, len(opsByTag))
	for tag := range opsByTag {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return tags
}

// Modes prints the mpstat-style execution-mode breakdown.
func Modes(w io.Writer, m osmodel.Modes) {
	total := float64(m.Total())
	fmt.Fprintf(w, "modes: user %.1f%%  system %.1f%%  i/o %.1f%%  idle %.1f%%  gc-idle %.1f%%\n",
		100*float64(m.User)/total, 100*float64(m.System)/total,
		100*float64(m.IOWait)/total, 100*float64(m.Idle)/total,
		100*float64(m.GCIdle)/total)
}

// LoadedModel prints the loaded-latency model's state; it prints nothing
// under the fixed model, keeping fixed-mode stdout byte-stable.
func LoadedModel(w io.Writer, sys *core.System) {
	if ls, ok := sys.Hier.LoadSnapshot(); ok {
		fmt.Fprintf(w, "memmodel loaded: util %.2f  mem x%.2f  c2c x%.2f  extra stall %d cycles  interventions %d\n",
			ls.Util, ls.MemMult, ls.C2CMult, ls.MemExtraCycles+ls.C2CExtraCycles, ls.Interventions)
	}
}

// RunTail prints what follows every single-run report: the checkpoint
// notice (when one was saved), then the run's attribution tables (when it
// carries an attribution collector) and request-latency/SLO tables (when it
// carries a latency collector), each after a blank line.
func RunTail(w io.Writer, r *core.Run, checkpoint string, attrTop int) {
	if checkpoint != "" {
		fmt.Fprintf(w, "checkpoint: saved to %s (resume with -resume %s)\n", checkpoint, checkpoint)
	}
	if ob := r.Observer; ob != nil && ob.Attr != nil {
		fmt.Fprintln(w)
		AttrSummary(w, ob.Attr.BuildReport(attrTop))
	}
	if r.Latency != nil {
		fmt.Fprintln(w)
		LatencySummary(w, r.Latency.BuildReport())
	}
}
