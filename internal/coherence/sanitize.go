package coherence

import (
	"fmt"
	"os"

	"repro/internal/cache"
)

// Protocol invariant sanitizer. With Sanitize on, the bus re-checks the
// MOSI/MSI/MESI single-writer invariants over every node's copy of a block
// at the end of each transaction on that block, and panics with a full
// state dump on the first violation. The check is O(nodes) per transaction
// — far too slow for performance runs, exactly right for CI: the
// environment variable COHERENCE_SANITIZE=1 turns it on for every bus in
// the process, so the existing protocol and workload tests double as an
// invariant sweep without touching their code.

// sanitizeEnv caches the COHERENCE_SANITIZE environment switch.
var sanitizeEnv = os.Getenv("COHERENCE_SANITIZE") == "1"

// sanitize validates the cross-cache invariants for block ba:
//
//   - at most one cache holds the block Modified or Exclusive, and then no
//     other cache holds any copy (single-writer / sole-clean-copy);
//   - at most one cache holds it Owned, and any other copies are Shared;
//   - dirty bits match states: M and O are dirty, S and E are clean;
//   - Exclusive and Owned appear only under the protocols that have them.
func (b *Bus) sanitize(ba uint64) {
	type copyInfo struct {
		node  int
		state cache.State
		dirty bool
	}
	var copies []copyInfo
	exclusive, owned := 0, 0
	var probed uint64
	probedOwner := -1
	for _, node := range b.nodes {
		l := node.l2.Probe(ba)
		if l == nil {
			continue
		}
		probed |= 1 << uint(node.id)
		st, dirty := l.State(), l.Dirty()
		if st == Modified || st == Owned || st == Exclusive {
			probedOwner = node.id
		}
		copies = append(copies, copyInfo{node.id, st, dirty})
		switch st {
		case Modified:
			exclusive++
			if !dirty {
				b.sanitizeFail(ba, copies, "Modified copy with clean dirty bit")
			}
		case Exclusive:
			exclusive++
			if b.Protocol != MESI {
				b.sanitizeFail(ba, copies, fmt.Sprintf("Exclusive state under %v", b.Protocol))
			}
			if dirty {
				b.sanitizeFail(ba, copies, "Exclusive copy with dirty bit set")
			}
		case Owned:
			owned++
			if b.Protocol != MOSI {
				b.sanitizeFail(ba, copies, fmt.Sprintf("Owned state under %v", b.Protocol))
			}
			if !dirty {
				b.sanitizeFail(ba, copies, "Owned copy with clean dirty bit")
			}
		case Shared:
			if dirty {
				b.sanitizeFail(ba, copies, "Shared copy with dirty bit set")
			}
		default:
			b.sanitizeFail(ba, copies, fmt.Sprintf("unknown state %v", st))
		}
	}
	if exclusive > 1 {
		b.sanitizeFail(ba, copies, "more than one Modified/Exclusive copy")
	}
	if exclusive == 1 && len(copies) > 1 {
		b.sanitizeFail(ba, copies, "Modified/Exclusive copy coexists with other copies")
	}
	if owned > 1 {
		b.sanitizeFail(ba, copies, "more than one Owned copy")
	}
	// Cross-check the duplicate-tag snoop filter against the probe sweep
	// just performed: under the sanitizer every transaction verifies that
	// the filter's sharers and owner are exactly the caches holding ba.
	b.checkFilter(ba, probed, probedOwner, copies)
}

func (b *Bus) sanitizeFail(ba uint64, copies any, why string) {
	panic(fmt.Sprintf("coherence: %v invariant violated for block %#x: %s; copies (node, state, dirty): %+v",
		b.Protocol, ba, why, copies))
}
