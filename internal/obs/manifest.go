package obs

import (
	"encoding/json"
	"os/exec"
	"strings"
	"time"
)

// Manifest records everything needed to reproduce one driver invocation
// byte-for-byte: the command and flags, the experiment options, the seed
// list, and the code version. It is written as JSON next to the driver's
// output, so a table in results/ always names the configuration that made
// it.
type Manifest struct {
	Command     string    `json:"command"`
	Args        []string  `json:"args"`
	Git         string    `json:"git"`
	Started     time.Time `json:"started"`
	WallSeconds float64   `json:"wall_seconds"`
	Seeds       []uint64  `json:"seeds,omitempty"`
	// Opts holds the experiment option structs by name (e.g. "scaling",
	// "sweep") — marshaled as-is so every knob is on record.
	Opts    map[string]any `json:"opts,omitempty"`
	Outputs []string       `json:"outputs,omitempty"`
}

// GitDescribe returns `git describe --always --dirty` for the working
// tree, or "unknown" when git or the repository is unavailable.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// WriteManifest writes the manifest as indented JSON at path, atomically.
func WriteManifest(path string, m Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return AtomicWriteFile(path, append(b, '\n'))
}
