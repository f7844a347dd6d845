package coherence

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs/attr"
	"repro/internal/simrand"
)

func cfg() cache.Config {
	return cache.Config{Name: "L2", SizeBytes: 8 << 10, Assoc: 4, BlockBytes: 64}
}

func twoNodes() (*Bus, *Node, *Node) {
	b := NewBus()
	return b, b.AddNode(cache.New(cfg()), nil), b.AddNode(cache.New(cfg()), nil)
}

// blockState returns n's state for the block containing addr (0 when
// absent).
func blockState(n *Node, addr uint64) cache.State {
	if l := n.l2.Probe(n.l2.BlockAddr(addr)); l != nil {
		return l.State()
	}
	return 0
}

func TestColdReadFromMemory(t *testing.T) {
	_, a, _ := twoNodes()
	if src := a.Read(0x1000, 0); src != SrcMemory {
		t.Fatalf("cold read src = %v", src)
	}
	if blockState(a, 0x1000) != Shared {
		t.Fatalf("state = %d", blockState(a, 0x1000))
	}
}

func TestReadHitLocal(t *testing.T) {
	b, a, _ := twoNodes()
	a.Read(0x1000, 0)
	if src := a.Read(0x1008, 0); src != SrcLocal {
		t.Fatalf("warm read src = %v", src)
	}
	if b.Stats.L2Hits != 1 {
		t.Fatalf("L2Hits = %d", b.Stats.L2Hits)
	}
}

func TestDirtyReadIsC2C(t *testing.T) {
	b, a, c := twoNodes()
	a.Write(0x1000, 0)
	if blockState(a, 0x1000) != Modified {
		t.Fatal("writer not Modified")
	}
	if src := c.Read(0x1000, 5); src != SrcCache {
		t.Fatalf("read of remote-dirty src = %v", src)
	}
	if blockState(a, 0x1000) != Owned || blockState(c, 0x1000) != Shared {
		t.Fatalf("states after c2c: a=%d c=%d",
			blockState(a, 0x1000), blockState(c, 0x1000))
	}
	if b.Stats.C2CTransfers != 1 {
		t.Fatalf("C2C = %d", b.Stats.C2CTransfers)
	}
}

func TestOwnedSuppliesRepeatedly(t *testing.T) {
	b := NewBus()
	a := b.AddNode(cache.New(cfg()), nil)
	c := b.AddNode(cache.New(cfg()), nil)
	d := b.AddNode(cache.New(cfg()), nil)
	a.Write(0x1000, 0)
	c.Read(0x1000, 0)
	if src := d.Read(0x1000, 0); src != SrcCache {
		t.Fatalf("Owned copy did not supply: %v", src)
	}
	if b.Stats.C2CTransfers != 2 {
		t.Fatalf("C2C = %d", b.Stats.C2CTransfers)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	b, a, c := twoNodes()
	a.Read(0x1000, 0)
	c.Read(0x1000, 0)
	if src := c.Write(0x1000, 0); src != SrcUpgrade {
		t.Fatalf("S->M should be upgrade, got %v", src)
	}
	if blockState(a, 0x1000) != 0 {
		t.Fatal("sharer not invalidated by upgrade")
	}
	if b.Stats.Upgrades != 1 || b.Stats.Invalidations != 1 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestWriteMissOfRemoteDirtyIsC2C(t *testing.T) {
	b, a, c := twoNodes()
	a.Write(0x1000, 0)
	if src := c.Write(0x1000, 0); src != SrcCache {
		t.Fatalf("write miss of remote-dirty src = %v", src)
	}
	if blockState(a, 0x1000) != 0 || blockState(c, 0x1000) != Modified {
		t.Fatal("ownership did not migrate")
	}
	if b.Stats.C2CTransfers != 1 || b.Stats.GetM != 2 { // cold write + migrating write
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestMigratoryPingPong(t *testing.T) {
	b, a, c := twoNodes()
	a.Write(0x40, 0)
	for i := 0; i < 10; i++ {
		c.Write(0x40, 0)
		a.Write(0x40, 0)
	}
	if b.Stats.C2CTransfers != 20 {
		t.Fatalf("ping-pong C2C = %d, want 20", b.Stats.C2CTransfers)
	}
	if b.Stats.C2CRatio() < 0.9 {
		t.Fatalf("C2C ratio = %v", b.Stats.C2CRatio())
	}
}

func TestOwnerUpgradeNeedsNoData(t *testing.T) {
	b, a, c := twoNodes()
	a.Write(0x1000, 0)
	c.Read(0x1000, 0) // a: O, c: S
	if src := a.Write(0x1000, 0); src != SrcUpgrade {
		t.Fatalf("O->M should be upgrade, got %v", src)
	}
	if blockState(c, 0x1000) != 0 {
		t.Fatal("S copy survived owner's upgrade")
	}
	_ = b
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	b := NewBus()
	small := cache.Config{Name: "L2", SizeBytes: 128, Assoc: 1, BlockBytes: 64} // 2 sets
	a := b.AddNode(cache.New(small), nil)
	a.Write(0x000, 0)
	a.Write(0x080, 0) // same set, evicts dirty 0x000
	if b.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", b.Stats.Writebacks)
	}
	// Re-read the evicted line: must come from memory, not a stale cache.
	if src := a.Read(0x000, 0); src != SrcMemory {
		t.Fatalf("re-read src = %v", src)
	}
}

func TestOnInvalidateHook(t *testing.T) {
	b := NewBus()
	var invalidated []uint64
	a := b.AddNode(cache.New(cfg()), nil)
	c := b.AddNode(cache.New(cfg()), func(ba uint64) { invalidated = append(invalidated, ba) })
	c.Read(0x1000, 0)
	a.Write(0x1000, 0)
	if len(invalidated) != 1 || invalidated[0] != 0x1000 {
		t.Fatalf("invalidation hook calls = %v", invalidated)
	}
}

// TestProfileRecordsTouchAndC2C: an exact collector on the bus is the
// communication profile — every touched line with its C2C transfers.
func TestProfileRecordsTouchAndC2C(t *testing.T) {
	b, a, c := twoNodes()
	b.Attr = attr.NewCollector(attr.Options{Exact: true})
	a.Read(0x2000, 0)  // touched, no c2c
	a.Write(0x1000, 0) // touched
	c.Read(0x1000, 1)  // c2c on line 0x1000
	if got := b.Attr.Shares(); !slices.Equal(got, []uint64{1, 0}) {
		t.Fatalf("per-line transfers = %v, want [1 0] (2 touched lines, 1 transfer)", got)
	}
}

// TestTimelineBinsC2C: the bus's collector bins C2C transfers by simulated
// time.
func TestTimelineBinsC2C(t *testing.T) {
	b, a, c := twoNodes()
	b.Attr = attr.NewCollector(attr.Options{Exact: true, TimelineBin: 100})
	a.Write(0x40, 0)
	c.Read(0x40, 50)   // bin 0
	c.Write(0x40, 250) // upgrade at c (c has S, a has O): no data moves
	a.Write(0x40, 260) // a lost its copy; GetM from c's M copy: c2c in bin 2
	if got := b.Attr.Timeline(); !slices.Equal(got, []uint64{1, 0, 1}) {
		t.Fatalf("bins = %v, want [1 0 1]", got)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	b, a, _ := twoNodes()
	b.ClassifyAddr = func(uint64) int { return 2 }
	a.Write(0x1000, 0) // served by memory: one classified miss
	if b.MissClass[2] != 1 {
		t.Fatalf("MissClass = %v, want the memory miss in class 2", b.MissClass)
	}
	b.ResetStats()
	if b.Stats.GetM != 0 || b.MissClass != [8]uint64{} {
		t.Fatalf("ResetStats incomplete: %+v, MissClass %v", b.Stats, b.MissClass)
	}
	if blockState(a, 0x1000) != Modified {
		t.Fatal("ResetStats disturbed cache contents")
	}
}

// checkInvariants asserts the MOSI single-writer/no-stale invariants across
// all nodes for every block seen.
func checkInvariants(t *testing.T, b *Bus, blocks []uint64) {
	t.Helper()
	for _, ba := range blocks {
		var m, o, s int
		for _, n := range b.nodes {
			switch blockState(n, ba) {
			case Modified:
				m++
			case Owned:
				o++
			case Shared:
				s++
			}
		}
		if m > 1 || o > 1 {
			t.Fatalf("block %x: %d M copies, %d O copies", ba, m, o)
		}
		if m == 1 && (o > 0 || s > 0) {
			t.Fatalf("block %x: M coexists with %d O, %d S", ba, o, s)
		}
	}
}

func TestRandomizedMOSIInvariants(t *testing.T) {
	r := simrand.New(77)
	b := NewBus()
	var nodes []*Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, b.AddNode(cache.New(cfg()), nil))
	}
	var blocks []uint64
	for i := 0; i < 32; i++ {
		blocks = append(blocks, uint64(i)*64)
	}
	for step := 0; step < 20000; step++ {
		n := nodes[r.Intn(len(nodes))]
		ba := blocks[r.Intn(len(blocks))]
		if r.Bool(0.4) {
			n.Write(ba, uint64(step))
		} else {
			n.Read(ba, uint64(step))
		}
		if step%500 == 0 {
			checkInvariants(t, b, blocks)
		}
	}
	checkInvariants(t, b, blocks)
	if b.Stats.C2CTransfers == 0 || b.Stats.MemTransfers == 0 {
		t.Fatalf("randomized run exercised too little: %+v", b.Stats)
	}
}

func TestC2CRatioZeroWhenQuiet(t *testing.T) {
	var s Stats
	if s.C2CRatio() != 0 {
		t.Fatal("empty ratio should be 0")
	}
}

func TestSourceStrings(t *testing.T) {
	if SrcLocal.String() != "local" || SrcCache.String() != "c2c" ||
		SrcMemory.String() != "memory" || SrcUpgrade.String() != "upgrade" {
		t.Fatal("source names wrong")
	}
}

func TestMSIReadOfDirtyWritesBack(t *testing.T) {
	b, a, c := twoNodes()
	b.Protocol = MSI
	a.Write(0x1000, 0)
	if src := c.Read(0x1000, 0); src != SrcCache {
		t.Fatalf("dirty supply src = %v", src)
	}
	// Under MSI the owner downgrades to Shared with a writeback, not Owned.
	if blockState(a, 0x1000) != Shared {
		t.Fatalf("MSI owner state = %d, want S", blockState(a, 0x1000))
	}
	if b.Stats.Writebacks == 0 {
		t.Fatal("MSI read of dirty line did not write back")
	}
	// A third read is served by memory (nobody owns it anymore).
	d := b.AddNode(cache.New(cfg()), nil)
	if src := d.Read(0x1000, 0); src != SrcMemory {
		t.Fatalf("MSI re-read src = %v, want memory", src)
	}
}

func TestMESIExclusiveSilentUpgrade(t *testing.T) {
	b, a, _ := twoNodes()
	b.Protocol = MESI
	if src := a.Read(0x1000, 0); src != SrcMemory {
		t.Fatalf("cold read src = %v", src)
	}
	if blockState(a, 0x1000) != Exclusive {
		t.Fatalf("sole clean copy state = %d, want E", blockState(a, 0x1000))
	}
	upgradesBefore := b.Stats.Upgrades
	getmBefore := b.Stats.GetM
	if src := a.Write(0x1000, 0); src != SrcLocal {
		t.Fatalf("E write src = %v, want local (silent)", src)
	}
	if b.Stats.Upgrades != upgradesBefore || b.Stats.GetM != getmBefore {
		t.Fatal("MESI E->M used the bus")
	}
	if blockState(a, 0x1000) != Modified {
		t.Fatal("E write did not reach M")
	}
}

func TestMESISecondReaderDowngradesExclusive(t *testing.T) {
	b, a, c := twoNodes()
	b.Protocol = MESI
	a.Read(0x1000, 0) // E
	if src := c.Read(0x1000, 0); src != SrcMemory {
		t.Fatalf("clean sharing src = %v (E6000 buses serve clean data from memory)", src)
	}
	if blockState(a, 0x1000) != Shared || blockState(c, 0x1000) != Shared {
		t.Fatalf("states after clean share: a=%d c=%d",
			blockState(a, 0x1000), blockState(c, 0x1000))
	}
}

func TestProtocolStrings(t *testing.T) {
	if MOSI.String() != "MOSI" || MSI.String() != "MSI" || MESI.String() != "MESI" {
		t.Fatal("protocol names wrong")
	}
}

func TestRandomizedInvariantsAllProtocols(t *testing.T) {
	for _, proto := range []Protocol{MOSI, MSI, MESI} {
		r := simrand.New(101 + uint64(proto))
		b := NewBus()
		b.Protocol = proto
		var nodes []*Node
		for i := 0; i < 4; i++ {
			nodes = append(nodes, b.AddNode(cache.New(cfg()), nil))
		}
		var blocks []uint64
		for i := 0; i < 24; i++ {
			blocks = append(blocks, uint64(i)*64)
		}
		for step := 0; step < 12000; step++ {
			n := nodes[r.Intn(len(nodes))]
			ba := blocks[r.Intn(len(blocks))]
			if r.Bool(0.4) {
				n.Write(ba, uint64(step))
			} else {
				n.Read(ba, uint64(step))
			}
		}
		// Single-writer and sole-E invariants.
		for _, ba := range blocks {
			var m, o, e, s int
			for _, n := range b.nodes {
				switch blockState(n, ba) {
				case Modified:
					m++
				case Owned:
					o++
				case Exclusive:
					e++
				case Shared:
					s++
				}
			}
			if m > 1 || o > 1 || e > 1 {
				t.Fatalf("%v block %x: m=%d o=%d e=%d", proto, ba, m, o, e)
			}
			if (m == 1 || e == 1) && (o+s) > 0 {
				t.Fatalf("%v block %x: exclusive state coexists with copies", proto, ba)
			}
			if proto != MOSI && o > 0 {
				t.Fatalf("%v block %x: Owned state outside MOSI", proto, ba)
			}
			if proto != MESI && e > 0 {
				t.Fatalf("%v block %x: Exclusive state outside MESI", proto, ba)
			}
		}
	}
}
