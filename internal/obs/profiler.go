package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Cat is a cycle-attribution category, mirroring the paper's CPI
// decomposition: Figure 6's other/instruction-stall split plus Figure 7's
// data-stall classes.
type Cat uint8

const (
	// CatBase is non-memory execution ("other" in Figure 6).
	CatBase Cat = iota
	// CatIStall is instruction-fetch stall.
	CatIStall
	// CatDStoreBuf is store-buffer-full stall.
	CatDStoreBuf
	// CatDRAW is read-after-write hazard stall.
	CatDRAW
	// CatDL2Hit is data stall served by the local L2 (incl. upgrades).
	CatDL2Hit
	// CatDC2C is data stall served by another cache (dirty miss).
	CatDC2C
	// CatDMem is data stall served by memory.
	CatDMem
	// CatDTLB is software TLB-refill stall.
	CatDTLB
	// NumCats bounds the category space.
	NumCats
)

// String names the category as it appears in folded stacks.
func (c Cat) String() string {
	switch c {
	case CatBase:
		return "base"
	case CatIStall:
		return "istall"
	case CatDStoreBuf:
		return "dstall.storebuf"
	case CatDRAW:
		return "dstall.raw"
	case CatDL2Hit:
		return "dstall.l2hit"
	case CatDC2C:
		return "dstall.c2c"
	case CatDMem:
		return "dstall.mem"
	case CatDTLB:
		return "dstall.tlb"
	default:
		return fmt.Sprintf("cat%d", uint8(c))
	}
}

// maxComps bounds the component-ID space (mem.ComponentID is a uint8).
const maxComps = 256

// Profiler attributes simulated cycles to (workload phase × code component
// × stall category). A nil *Profiler is valid and disabled; the enabled
// hot path is two array indexes and an add.
//
// Output is the folded-stack format ("phase;component;category cycles"),
// which flamegraph tooling, speedscope, and pprof's folded importer all
// read — the paper's Figure 6/7 CPI decomposition as a first-class
// profile.
type Profiler struct {
	// Scope, when set, prefixes every folded stack as the root frame
	// (e.g. the workload name when profiles from several runs are merged
	// into one file).
	Scope string

	phase   string
	phaseID int
	phases  []string
	ids     map[string]int

	compName [maxComps]string

	// cycles[phase][comp][cat]
	cycles []*[maxComps][NumCats]uint64
}

// NewProfiler returns an enabled profiler in phase "run".
func NewProfiler() *Profiler {
	p := &Profiler{ids: map[string]int{}}
	p.phaseID = p.internPhase("run")
	p.phase = "run"
	return p
}

func (p *Profiler) internPhase(name string) int {
	if id, ok := p.ids[name]; ok {
		return id
	}
	id := len(p.phases)
	p.ids[name] = id
	p.phases = append(p.phases, name)
	p.cycles = append(p.cycles, &[maxComps][NumCats]uint64{})
	return id
}

// SetPhase switches the current workload phase, returning the previous one
// so instrumentation can nest (the engine pushes a "/gc" sub-phase around
// stop-the-world collections).
func (p *Profiler) SetPhase(name string) (prev string) {
	if p == nil {
		return ""
	}
	prev = p.phase
	p.phase = name
	p.phaseID = p.internPhase(name)
	return prev
}

// PushSubPhase enters "<current>/<name>" and returns the previous phase
// for restoring with SetPhase.
func (p *Profiler) PushSubPhase(name string) (prev string) {
	if p == nil {
		return ""
	}
	return p.SetPhase(p.phase + "/" + name)
}

// NameComponent labels a component ID for folded output. Unnamed
// components render as "comp<N>".
func (p *Profiler) NameComponent(id int, name string) {
	if p == nil || id < 0 || id >= maxComps {
		return
	}
	p.compName[id] = name
}

// AddCycles attributes cycles to (current phase, component, category).
// This is the hot path: kept minimal and branch-light.
func (p *Profiler) AddCycles(comp int, cat Cat, cycles uint64) {
	if p == nil || cycles == 0 {
		return
	}
	p.cycles[p.phaseID][comp&(maxComps-1)][cat] += cycles
}

// Reset discards all attributed cycles (phase names and component labels
// survive) — called at the warm-up/measurement boundary alongside the
// engine's ResetStats.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	for _, m := range p.cycles {
		*m = [maxComps][NumCats]uint64{}
	}
}

// ComponentTotals sums cycles per component name across phases and
// categories.
func (p *Profiler) ComponentTotals() map[string]uint64 {
	out := map[string]uint64{}
	if p == nil {
		return out
	}
	for _, m := range p.cycles {
		for c := range m {
			var n uint64
			for k := range m[c] {
				n += m[c][k]
			}
			if n > 0 {
				out[p.componentLabel(c)] += n
			}
		}
	}
	return out
}

func (p *Profiler) componentLabel(id int) string {
	if n := p.compName[id]; n != "" {
		return n
	}
	return fmt.Sprintf("comp%d", id)
}

// WriteFolded writes the profile as folded stacks, one line per non-zero
// (phase, component, category) cell, deterministically ordered.
func (p *Profiler) WriteFolded(w io.Writer) error {
	if p == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	type row struct {
		stack  string
		cycles uint64
	}
	var rows []row
	for pi, m := range p.cycles {
		for c := range m {
			for k := range m[c] {
				if m[c][k] == 0 {
					continue
				}
				stack := p.phases[pi] + ";" + p.componentLabel(c) + ";" + Cat(k).String()
				if p.Scope != "" {
					stack = p.Scope + ";" + stack
				}
				rows = append(rows, row{stack, m[c][k]})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].stack < rows[j].stack })
	for _, r := range rows {
		if _, err := fmt.Fprintf(bw, "%s %d\n", r.stack, r.cycles); err != nil {
			return err
		}
	}
	return bw.Flush()
}
