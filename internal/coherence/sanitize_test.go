package coherence

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/simrand"
)

// TestSanitizerCleanUnderRandomTraffic hammers each protocol with random
// coherent traffic from several nodes with the sanitizer on: every
// transaction re-checks the cross-cache invariants, so a pass means the
// protocol held them for the whole run.
func TestSanitizerCleanUnderRandomTraffic(t *testing.T) {
	for _, proto := range []Protocol{MOSI, MSI, MESI} {
		t.Run(proto.String(), func(t *testing.T) {
			b := NewBus()
			b.Protocol = proto
			b.Sanitize = true
			var nodes []*Node
			for i := 0; i < 4; i++ {
				nodes = append(nodes, b.AddNode(cache.New(cfg()), nil))
			}
			rng := simrand.New(uint64(7 + proto))
			// A small hot set forces heavy sharing, upgrades, and evictions.
			for i := 0; i < 20_000; i++ {
				n := nodes[rng.Intn(len(nodes))]
				addr := uint64(rng.Intn(64)) * 64 * 7 // overlapping sets
				if rng.Bool(0.4) {
					n.Write(addr, uint64(i))
				} else {
					n.Read(addr, uint64(i))
				}
			}
			if b.Stats.C2CTransfers == 0 || b.Stats.Upgrades == 0 {
				t.Fatalf("traffic too tame to exercise the protocol: %+v", b.Stats)
			}
		})
	}
}

// TestSanitizerCatchesTampering corrupts the state directly — two Modified
// copies of one block — and checks the sanitizer panics with a diagnostic
// rather than letting the broken state propagate.
func TestSanitizerCatchesTampering(t *testing.T) {
	b, a, c := twoNodes()
	b.Sanitize = true
	a.Write(0x1000, 0)

	// Simulate a protocol bug: a second Modified copy appears without the
	// first being invalidated.
	c.l2.Allocate(c.l2.BlockAddr(0x1000), Modified)
	if l := c.l2.Probe(c.l2.BlockAddr(0x1000)); l != nil {
		l.SetDirty(true)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not catch a double-Modified block")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "invariant violated") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	// Any transaction touching the block trips the check.
	a.Read(0x1000, 1)
}

// TestSanitizerOffByDefault checks the fast path stays fast: no Sanitize
// flag, no checks — the tampered state above goes unnoticed.
func TestSanitizerOffByDefault(t *testing.T) {
	if sanitizeEnv {
		t.Skip("COHERENCE_SANITIZE=1 set in the environment")
	}
	b, a, c := twoNodes()
	if b.Sanitize {
		t.Fatal("sanitizer on without the env switch")
	}
	a.Write(0x1000, 0)
	c.l2.Allocate(c.l2.BlockAddr(0x1000), Modified)
	a.Read(0x1000, 1) // must not panic
}
