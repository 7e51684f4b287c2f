// Package failfs is the filesystem seam for shed's durability code.
//
// Everything the WAL and snapshot writers do to disk goes through the
// FS interface, so tests can substitute Fault — a wrapper that injects
// short writes, fsync errors, and crash-at-every-point — and prove
// that recovery never loses acknowledged writes and never loads
// corrupt state. Production code uses OS, which maps 1:1 onto the os
// package plus a directory-fsync helper that os does not expose.
//
// The interface is deliberately small: whole-file reads, append/create
// writes (and a write at an offset, for a sealed file's header),
// rename, remove, truncate, and the two fsyncs (file and directory)
// that crash-safe file replacement needs. Nothing here seeks or
// memory-maps; segments and snapshots are bounded, so whole files are
// read at once.
package failfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the writable handle returned by FS.OpenFile. Durability code
// appends and syncs; the one write behind the end is a sealed file's
// header, put over the bytes reserved for it once the payload is
// written. Reads go through FS.ReadFile.
type File interface {
	io.Writer
	io.WriterAt
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the set of file operations shed's durability layer performs.
// Implementations: OS (the real filesystem) and Fault (fault
// injection for tests).
type FS interface {
	// OpenFile opens name with the given flags (os.O_* values).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// ReadFileAt fills buf with the bytes of name starting at off and
	// returns how many it read. Fewer than len(buf) (with a nil error)
	// means the file ends before off+len(buf); an offset at or past the
	// end reads nothing. The WAL tail reader uses it to stream a
	// segment's new bytes to replicas into a buffer it reuses, without
	// re-reading the whole file on every poll.
	ReadFileAt(name string, off int64, buf []byte) (int, error)
	// ReadDir lists the directory, sorted by name.
	ReadDir(name string) ([]fs.DirEntry, error)
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(name string, perm fs.FileMode) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file or empty directory.
	Remove(name string) error
	// Truncate cuts name to size bytes (torn-tail repair).
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames and creates in it
	// durable.
	SyncDir(name string) error
	// Stat describes the named file.
	Stat(name string) (fs.FileInfo, error)
}

// OS is the real filesystem.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadFileAt reads the byte range [off, off+len(buf)) of name into buf,
// short at EOF.
func (OS) ReadFileAt(name string, off int64, buf []byte) (int, error) {
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	m, err := f.ReadAt(buf, off)
	if err == io.EOF {
		err = nil
	}
	return m, err
}
func (OS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (OS) MkdirAll(name string, perm fs.FileMode) error { return os.MkdirAll(name, perm) }
func (OS) Rename(oldname, newname string) error         { return os.Rename(oldname, newname) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (OS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

// SyncDir fsyncs the directory itself, which is what makes a rename
// or create inside it survive power loss.
func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
