package service

import (
	"io"
	"os"
)

// File is the slice of *os.File the service's durable state needs:
// sequential reads/writes plus Sync, so a write-ahead append can be
// forced to stable storage before the daemon acknowledges a job.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// FS abstracts the handful of filesystem operations behind the journal
// and the image. Production uses OSFS; the chaos harness wraps
// it with seeded write/sync/rename failures to prove the daemon degrades
// instead of crashing (internal/chaos.FaultyFS).
type FS interface {
	// Create truncates or creates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Append opens (creating if absent) the named file for appending.
	Append(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes the named file.
	Remove(name string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// Create implements FS.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// Open implements FS.
func (OSFS) Open(name string) (File, error) { return os.Open(name) }

// Append implements FS.
func (OSFS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }
