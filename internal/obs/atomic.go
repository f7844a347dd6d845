package obs

import (
	"fmt"
	"os"
	"path/filepath"
)

// Crash-safe file output. Every JSON artifact the simulator produces —
// manifests, metrics snapshots, traces, results, checkpoints — goes through
// write-temp-then-rename: the bytes land in a hidden temporary file in the
// destination directory and only an atomic rename publishes them. A run
// killed mid-write (or mid-fault-injection experiment) therefore leaves
// either the previous complete file or no file, never a truncated one that
// a later tool would half-parse.

// filePerm is every artifact's permission bits.
const filePerm os.FileMode = 0o644

// AtomicWriteFile writes data to path via a temporary file and rename.
func AtomicWriteFile(path string, data []byte) error {
	w, err := AtomicCreate(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// AtomicFile is an io.WriteCloser whose contents become visible at path
// only when Close succeeds. Abort (or a failed Close) removes the
// temporary file and leaves any existing file at path untouched.
type AtomicFile struct {
	f    *os.File
	path string
	done bool
}

// AtomicCreate opens a temporary file next to path for writing. Close
// publishes it at path atomically; Abort discards it. A path that exists
// and is not a regular file (a device, FIFO, socket or directory) is
// refused: the rename would replace the node itself, not write through it.
func AtomicCreate(path string) (*AtomicFile, error) {
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("%s is not a regular file (%s)", path, fi.Mode().Type())
	}
	// The temporary file sits beside path, so the rename stays on one
	// filesystem; a bare name's directory is ".", not os.TempDir().
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return nil, err
	}
	if err := f.Chmod(filePerm); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write appends to the pending file.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Close flushes the pending file to stable storage and renames it into
// place. On any error the temporary file is removed and path is untouched.
func (a *AtomicFile) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return nil
}

// Abort discards the pending write. Safe after Close (no-op).
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}
