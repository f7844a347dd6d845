// Package lib plants one of each case the one-value knob check must tell
// apart.
package lib

// Config is built twice by cmd/tool.
type Config struct {
	Ways  int // 4 in both literals: a finding
	Zero  int // 0, spelled out in both literals: a finding
	Sets  int // 64 in one literal, left out (zero) in the other: not a finding
	Limit int // a different constant in each literal: not a finding
	Depth int // left out (zero) in both literals, which Defaults fills with 8: a finding
	Burst int // 2 in one literal, left out in the other, which Defaults fills with 8: not a finding
}

// Defaults fills Depth and Burst when they are zero; cmd/tool calls it on
// both literals.
func (c Config) Defaults() Config {
	if c.Depth == 0 {
		c.Depth = 8
	}
	if c.Burst == 0 {
		c.Burst = 8
	}
	return c
}

// State is decoded with encoding/json by cmd/tool, which also builds one
// with Saved always 1: exempt.
type State struct{ Saved int }

// Server is built by New.
type Server struct{ n int }

// New is called by cmd/tool with limit always -1 and seed always nil (both
// findings) and name always "x" (a string parameter: not a finding).
// lib_test.go passes other values; tests do not count.
func New(name string, limit int, seed *int) *Server {
	if seed != nil {
		limit += *seed
	}
	return &Server{n: len(name) + limit}
}

// Serve is called with quiet always false: a finding.
func (s *Server) Serve(quiet bool) int {
	if quiet {
		return 0
	}
	return s.n
}

// Write is always called with nil, but it is reached through io.Writer
// too: exempt.
func (s *Server) Write(p []byte) (int, error) { return len(p), nil }

// Apply is always called with 3, but it is also used as a value: exempt.
func Apply(n int) int { return n * 2 }

// Log is always called with 1, through its variadic parameter: exempt.
func Log(args ...int) int { return len(args) }

// Tuned is always called with 1, here and by the sibling module bench/,
// whose calls fix its signature: exempt.
func Tuned(n int) int { return n }

// Scale is called with different constants: not a finding.
func Scale(n int) int { return n * 3 }
