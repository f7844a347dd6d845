package obs

import (
	"flag"
	"slices"
	"testing"
)

// TestStandardFlagNamesMatchRegister pins StandardFlagNames to what
// Flags.Register actually installs, so the per-driver parity tests cannot
// silently go stale when a flag is added or renamed.
func TestStandardFlagNamesMatchRegister(t *testing.T) {
	var fl Flags
	fs := flag.NewFlagSet("scratch", flag.ContinueOnError)
	fl.Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := slices.Clone(StandardFlagNames())
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Flags.Register installs %v, StandardFlagNames says %v", got, want)
	}
}
