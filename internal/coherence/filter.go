package coherence

import "fmt"

// Duplicate-tag snoop filter.
//
// The real E6000 keeps a duplicate copy of every L2's tag array next to the
// bus so a snoop can be answered without disturbing (or even reaching) the
// processors' caches. The simulator models the same idea as one bus-side
// index from block address to a packed (sharer bitmask, owner) pair:
//
//   - the bitmask records which nodes hold the block, so a GetM or Upgrade
//     invalidates only actual sharers instead of probing all P nodes;
//   - the owner field records the one node (if any) holding the block
//     Modified, Owned, or Exclusive. A GetS snoop only ever changes the
//     owner's copy — Shared copies are unaffected — so a read miss probes at
//     most one remote cache no matter how widely the block is shared. That
//     matters: instruction blocks are Shared by every node, and a GetS that
//     probed each of them would cost exactly the O(P) scan the filter is
//     meant to avoid.
//
// The index is maintained on the only events that change L2 residency or
// ownership (miss fill, the eviction that fill causes, invalidation, and
// the ownership up/downgrades of the protocol), so it is exact, not
// conservative. Every bus has one, a single-node bus included (its masks
// hold only its own bit), and it is the bus's only snoop mechanism.
//
// Statistics match a probe-every-node scan because sharers are visited in
// ascending node order and a GetS leaves Shared copies untouched either
// way. The tests keep that scan as a frozen reference bus (refBus in
// reference_test.go) and drive both with identical traffic; with
// COHERENCE_SANITIZE=1 the sanitizer also cross-checks mask and owner
// against a probe of every node after every transaction.

// MaxNodes is the widest bus the filter's 32-bit sharer mask can describe
// (the paper's machine has 16 processors).
const MaxNodes = 32

// Packed filter value: bits 0-31 sharer mask, bits 32-38 owner id plus one
// (zero = no owner). A zero value means "no node holds the block" and doubles
// as the table's empty-slot sentinel.
const (
	fMaskBits   = 0xFFFFFFFF
	fOwnerShift = 32
)

func fOwner(v uint64) int { return int(v>>fOwnerShift) - 1 } // -1 = none

func fSetOwner(v uint64, id int) uint64 {
	return v&fMaskBits | uint64(id+1)<<fOwnerShift
}

func fClearOwner(v uint64) uint64 { return v & fMaskBits }

// filterAdd records that node id filled block ba; owning marks it the
// block's M/E holder.
func (b *Bus) filterAdd(id int, ba uint64, owning bool) {
	p := b.filter.ref(ba)
	v := *p | 1<<uint(id)
	if owning {
		v = fSetOwner(v, id)
	}
	*p = v
}

// filterEvict records that node id lost its copy of block ba, clearing the
// owner field if that node was the owner.
func (b *Bus) filterEvict(id int, ba uint64) {
	p := b.filter.lookup(ba)
	if p == nil {
		return
	}
	v := *p &^ (1 << uint(id))
	if fOwner(v) == id {
		v = fClearOwner(v)
	}
	if v&fMaskBits == 0 {
		b.filter.del(ba)
		return
	}
	*p = v
}

// checkFilter compares the filter's view of ba against a fresh probe of
// every node (the sanitizer's probe sweep) and panics on the first
// mismatch. probedMask and probedOwner are what the sanitizer just
// gathered; probedOwner is -1 when no node holds the block M/O/E.
func (b *Bus) checkFilter(ba uint64, probedMask uint64, probedOwner int, copies any) {
	var got uint64
	if p := b.filter.lookup(ba); p != nil {
		got = *p
	}
	want := probedMask
	if probedOwner >= 0 {
		want = fSetOwner(want, probedOwner)
	}
	if got != want {
		b.sanitizeFail(ba, copies, fmt.Sprintf(
			"duplicate-tag snoop filter desynced: filter (mask %#x, owner %d) != probed (mask %#x, owner %d)",
			got&fMaskBits, fOwner(got), probedMask, probedOwner))
	}
}

// filterTable is a purpose-built open-addressing hash table from block
// address to packed filter value: linear probing, power-of-two capacity,
// backward-shift deletion. It exists because the filter sits on the bus's
// per-transaction path, where a general map's hashing and bucket machinery
// is measurable; block addresses hash well with one Fibonacci multiply.
// An empty slot is val == 0; block address zero is carried out-of-line.
type filterTable struct {
	slots   []fslot
	mask    uint64
	shift   uint // 64 - log2(len(slots)): hash keeps the product's top bits
	n       int
	zeroVal uint64 // value for block address 0 (0 = absent)
}

type fslot struct {
	key, val uint64
}

func newFilterTable() filterTable {
	// Sized for a few L2s' worth of resident blocks up front; multi-node
	// runs reach hundreds of thousands of entries anyway, so starting tiny
	// only buys a cascade of rehashes.
	const initialBits = 16
	return filterTable{slots: make([]fslot, 1<<initialBits), mask: 1<<initialBits - 1, shift: 64 - initialBits}
}

func (t *filterTable) hash(key uint64) uint64 {
	// Block addresses have at least 6 trailing zero bits; the Fibonacci
	// multiply mixes every informative bit into the product's top bits,
	// and only those index the table (Knuth, TAOCP 6.4). Lower bits of the
	// product depend on fewer key bits and cluster linear-probe chains.
	return (key >> 6 * 0x9E3779B97F4A7C15) >> t.shift
}

// lookup returns a pointer to key's value, or nil when absent. The pointer
// is valid only until the next ref/del call.
func (t *filterTable) lookup(key uint64) *uint64 {
	if key == 0 {
		if t.zeroVal == 0 {
			return nil
		}
		return &t.zeroVal
	}
	i := t.hash(key)
	for {
		s := &t.slots[i]
		if s.val == 0 {
			return nil
		}
		if s.key == key {
			return &s.val
		}
		i = (i + 1) & t.mask
	}
}

// ref returns a pointer to key's value, claiming a slot with a zero value
// if absent; the caller must immediately store a nonzero value through it.
// The pointer is valid only until the next ref/del call.
func (t *filterTable) ref(key uint64) *uint64 {
	if key == 0 {
		return &t.zeroVal
	}
	if t.n >= len(t.slots)*3/4 {
		t.grow()
	}
	i := t.hash(key)
	for {
		s := &t.slots[i]
		if s.val == 0 {
			s.key = key
			t.n++
			return &s.val
		}
		if s.key == key {
			return &s.val
		}
		i = (i + 1) & t.mask
	}
}

// del removes key, keeping the probe chains intact by re-inserting the
// cluster that follows the vacated slot.
func (t *filterTable) del(key uint64) {
	if key == 0 {
		t.zeroVal = 0
		return
	}
	i := t.hash(key)
	for {
		s := &t.slots[i]
		if s.val == 0 {
			return
		}
		if s.key == key {
			break
		}
		i = (i + 1) & t.mask
	}
	t.slots[i] = fslot{}
	t.n--
	for j := (i + 1) & t.mask; t.slots[j].val != 0; j = (j + 1) & t.mask {
		e := t.slots[j]
		t.slots[j] = fslot{}
		t.n--
		t.reinsert(e)
	}
}

func (t *filterTable) reinsert(e fslot) {
	i := t.hash(e.key)
	for t.slots[i].val != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = e
	t.n++
}

func (t *filterTable) grow() {
	old := t.slots
	t.slots = make([]fslot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	t.shift--
	t.n = 0
	for _, s := range old {
		if s.val != 0 {
			t.reinsert(s)
		}
	}
}
