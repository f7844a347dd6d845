package stats

import (
	"strings"
	"testing"
)

// TestCounterSetStringOrder is the regression test for the String/Names
// ordering inconsistency: String used to sort alphabetically while Names
// returned registration order. Both must now report registration order,
// with SortedString providing the alphabetical view.
func TestCounterSetStringOrder(t *testing.T) {
	c := NewCounterSet()
	c.Inc("zeta", 1)
	c.Inc("alpha", 2)
	c.Inc("mid", 3)

	lineOrder := func(s string) []string {
		var names []string
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			names = append(names, strings.Fields(line)[0])
		}
		return names
	}

	got := lineOrder(c.String())
	want := c.Names()
	if len(got) != len(want) {
		t.Fatalf("String has %d lines, Names has %d entries", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("String order %v disagrees with Names %v", got, want)
		}
	}

	sorted := lineOrder(c.SortedString())
	wantSorted := []string{"alpha", "mid", "zeta"}
	for i := range wantSorted {
		if sorted[i] != wantSorted[i] {
			t.Fatalf("SortedString order %v, want %v", sorted, wantSorted)
		}
	}
}
