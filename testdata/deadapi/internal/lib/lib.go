// Package lib plants one of each case the dead-API check must tell apart.
package lib

import (
	"fmt"
	"strconv"
)

// Counter is used by cmd/tool.
type Counter struct {
	n     int // set by Add and Reset, read by Value
	calls int // incremented by Add, never read: a finding
	peak  int // set by Add, read only by lib_test.go: a finding
	ticks int // read by Add only to set it again: a finding
}

// Add is called by cmd/tool.
func (c *Counter) Add() {
	c.n++
	c.calls++
	c.peak = max(c.n, 0)
	c.ticks = c.ticks + 1
}

// Value is called by cmd/tool.
func (c *Counter) Value() int { return c.n }

// Reset is called only by lib_test.go: a finding.
func (c *Counter) Reset() { c.n = 0 }

// TestOnly is called only by lib_test.go: a finding.
func TestOnly() int { return 1 }

// Fake is used only by its own methods and lib_test.go: both are findings.
type Fake struct{ i int }

// Next returns the next value.
func (f *Fake) Next() int {
	f.i++
	return f.i
}

// Config is built by cmd/tool, which never sets Knob or limit: both are
// findings.
type Config struct {
	Name  string
	Knob  int
	limit int
}

// Run reads every field.
func Run(c Config) string { return c.Name + strconv.Itoa(clamp(c.Knob, c.limit)) }

// clamp is called by Run. Its local declarations are out of the check's
// scope, though nothing sets or uses them.
func clamp(n, limit int) int {
	const unused = 0
	type local struct{ never int }
	if limit > 0 && n > limit {
		return limit
	}
	return n
}

// helper is called only by lib_test.go: a finding.
func helper() int { return 3 }

// init runs without a caller, so it is exempt.
func init() {}

// State is decoded with encoding/json by cmd/tool, which sets Saved.
type State struct{ Saved int }

// Level is a flag.Value; only the flag package calls Set.
type Level int

// Set parses a level.
func (l *Level) Set(s string) error {
	n, err := strconv.Atoi(s)
	*l = Level(n)
	return err
}

// String is exempt: fmt finds it by reflection.
func (l *Level) String() string { return fmt.Sprint(int(*l)) }

// BenchOnly is called only from the sibling module bench/.
func BenchOnly() int { return 2 }

// Report is built by cmd/tool, which sets Total and hands the report to
// json.Marshal: encoding/json reads Total by reflection.
type Report struct{ Total int }

// Machine is built by NewMachine, which the sibling module bench/ calls.
type Machine struct{ cfg Config }

// NewMachine returns a machine named m.
func NewMachine() *Machine { return &Machine{cfg: Config{Name: "m"}} }

// Config is called by bench/.
func (m *Machine) Config() Config { return m.cfg }

// Pool is built by cmd/tool.
type Pool struct{}

// Config is called by nothing, though bench/ calls Machine.Config: a
// finding.
func (p *Pool) Config() Config { return Config{} }
