package jvm

import (
	"testing"

	"repro/internal/obs/attr"
)

func TestAllocSiteStamping(t *testing.T) {
	h := newHeap(t)
	r := rec()

	plain := h.Alloc(r, 0, 64, 0)
	h.SetAllocSite(0, "test.site")
	labeled := h.Alloc(r, 0, 64, 0)
	h.SetAllocSite(0, "")
	unlabeled := h.Alloc(r, 0, 64, 0)
	h.SetAllocSite(1, "other.site")
	other := h.Alloc(r, 1, 64, 0)
	mine := h.Alloc(r, 0, 64, 0) // thread 0 stays unlabeled

	for _, c := range []struct {
		id   ObjectID
		want string
	}{{plain, ""}, {labeled, "test.site"}, {unlabeled, ""}, {other, "other.site"}, {mine, ""}} {
		if got := h.sites[h.objects[c.id].site]; got != c.want {
			t.Errorf("site = %q, want %q", got, c.want)
		}
	}
}

func TestSiteResolverCoversLabeledObjects(t *testing.T) {
	h := newHeap(t)
	r := rec()
	h.SetAllocSite(0, "test.site")
	id := h.Alloc(r, 0, 200, 0)
	h.SetAllocSite(0, "")
	bare := h.Alloc(r, 0, 200, 0)
	h.AddRoot(id)
	h.AddRoot(bare)

	res := h.SiteResolver()
	addr := uint64(h.Addr(id))
	if label, ok := res(addr); !ok || label != "test.site" {
		t.Fatalf("resolver(%#x) = %q/%v, want test.site", addr, label, ok)
	}
	if label, ok := res(addr + 150); !ok || label != "test.site" {
		t.Fatalf("resolver inside object = %q/%v, want test.site", label, ok)
	}
	if _, ok := res(uint64(h.Addr(bare))); ok {
		t.Fatal("resolver labeled an unlabeled object")
	}
	if _, ok := res(addr + 10<<20); ok {
		t.Fatal("resolver labeled an address outside every object")
	}
}

// TestGCEpochClosesAgainstPreGCLayout is the attribution/GC contract: events
// recorded at an object's pre-GC address must resolve to its site even
// though the collection then moves the object.
func TestGCEpochClosesAgainstPreGCLayout(t *testing.T) {
	h := newHeap(t)
	c := attr.NewCollector(attr.Options{Exact: true})
	h.SetAttr(c)
	r := rec()

	h.SetAllocSite(0, "test.site")
	id := h.Alloc(r, 0, 256, 0)
	h.SetAllocSite(0, "")
	h.AddRoot(id)
	h.ClearStack(0)

	pre := uint64(h.Addr(id))
	c.RecordGetS(pre&^63, 0, false, 0)
	c.RecordGetM(pre&^63, 1, true, 0)

	h.MinorGC(nil)

	if uint64(h.Addr(id)) == pre {
		t.Fatal("test needs the collection to move the object")
	}
	if c.EpochCount() != 1 {
		t.Fatalf("MinorGC closed %d epochs, want 1", c.EpochCount())
	}
	rep := c.BuildReport(10)
	var got attr.Counts
	for _, o := range rep.HotObjects {
		if o.Label == "test.site" {
			got = o.Counts
		}
	}
	want := attr.Counts{GetS: 1, GetM: 1, C2C: 1}
	if got != want {
		t.Errorf("pre-GC events rolled up %+v, want %+v", got, want)
	}
	if len(rep.EpochMix) != 1 || rep.EpochMix[0].Trigger != "minor" {
		t.Errorf("epoch summary = %+v, want one minor epoch", rep.EpochMix)
	}
}

func TestMajorGCClosesEpoch(t *testing.T) {
	h := newHeap(t)
	c := attr.NewCollector(attr.Options{Exact: true})
	h.SetAttr(c)
	r := rec()
	id := h.Alloc(r, 0, 128, 0)
	h.AddRoot(id)
	h.ClearStack(0)
	h.MajorGC(nil)
	if c.EpochCount() != 1 {
		t.Fatalf("MajorGC closed %d epochs, want 1", c.EpochCount())
	}
}

func TestSiteInterningSurvivesGC(t *testing.T) {
	h := newHeap(t)
	r := rec()
	h.SetAllocSite(0, "test.site")
	id := h.Alloc(r, 0, 128, 0)
	h.SetAllocSite(0, "")
	h.AddRoot(id)
	h.ClearStack(0)
	h.MinorGC(nil)
	h.MinorGC(nil) // promote
	if got := h.sites[h.objects[id].site]; got != "test.site" {
		t.Errorf("site after GC copies = %q, want test.site", got)
	}
	// The resolver over the post-GC layout must find the new address.
	if label, ok := h.SiteResolver()(uint64(h.Addr(id))); !ok || label != "test.site" {
		t.Errorf("post-GC resolver = %q/%v, want test.site", label, ok)
	}
}
