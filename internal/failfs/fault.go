package failfs

import (
	"errors"
	"io/fs"
	"sync"
)

// ErrCrashed is returned by every operation on a Fault after its crash
// point fires: the simulated process is dead and nothing else reaches
// the disk. Recovery code opens the same directory with a fresh FS.
var ErrCrashed = errors.New("failfs: crashed")

// ErrInjectedSync is the error returned by a Sync that was told to
// fail without crashing the whole filesystem (an EIO-style fsync
// failure the caller is expected to handle).
var ErrInjectedSync = errors.New("failfs: injected fsync error")

// Fault wraps an FS and injects failures on command.
//
// Crash-at-every-point: every state-mutating operation (write, sync,
// rename, remove, truncate, create, dir-sync) advances a step counter.
// CrashAt(n) arms a crash at step n: that operation fails — a write
// fails *after* persisting a short prefix, simulating a torn write —
// and every later operation returns ErrCrashed. A test first runs its
// workload with no crash armed to learn the total step count, then
// replays it once per step, recovering from the surviving directory
// each time.
//
// FailSyncs(n) makes the next n Sync/SyncDir calls return
// ErrInjectedSync without killing the filesystem, for testing fsync
// error handling in isolation.
type Fault struct {
	inner FS

	mu        sync.Mutex
	steps     int64
	crashAt   int64 // 0 = disarmed; crash when steps reaches this value
	crashed   bool
	syncFails int
}

// NewFault wraps inner with fault injection. The zero configuration
// injects nothing.
func NewFault(inner FS) *Fault { return &Fault{inner: inner} }

// Steps returns how many mutating operations have run so far.
func (f *Fault) Steps() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.steps
}

// CrashAt arms a sticky crash at mutating-operation number n (1-based).
// n <= 0 disarms.
func (f *Fault) CrashAt(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = n
	f.crashed = false
}

// Crashed reports whether the crash point has fired.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// FailSyncs makes the next n Sync/SyncDir calls fail with
// ErrInjectedSync (non-sticky).
func (f *Fault) FailSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncFails = n
}

// step accounts one mutating operation. It returns an error when the
// filesystem is already dead or this very step is the armed crash
// point.
func (f *Fault) step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	f.steps++
	if f.crashAt > 0 && f.steps >= f.crashAt {
		f.crashed = true
		return ErrCrashed
	}
	return nil
}

// stepWrite is step for file writes: it additionally reports whether
// this very step fired the crash, in which case the write is torn (a
// prefix persists) rather than lost outright. Writes after the crash
// reach nothing.
func (f *Fault) stepWrite() (torn bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, ErrCrashed
	}
	f.steps++
	if f.crashAt > 0 && f.steps >= f.crashAt {
		f.crashed = true
		return true, ErrCrashed
	}
	return false, nil
}

// dead reports whether non-mutating operations should fail too.
func (f *Fault) dead() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *Fault) takeSyncFail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.syncFails > 0 {
		f.syncFails--
		return true
	}
	return false
}

func (f *Fault) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, inner: file}, nil
}

func (f *Fault) ReadFile(name string) ([]byte, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *Fault) ReadFileAt(name string, off int64, buf []byte) (int, error) {
	if err := f.dead(); err != nil {
		return 0, err
	}
	return f.inner.ReadFileAt(name, off, buf)
}

func (f *Fault) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *Fault) MkdirAll(name string, perm fs.FileMode) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.MkdirAll(name, perm)
}

func (f *Fault) Rename(oldname, newname string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

func (f *Fault) Remove(name string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *Fault) Truncate(name string, size int64) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

func (f *Fault) SyncDir(name string) error {
	if err := f.step(); err != nil {
		return err
	}
	if f.takeSyncFail() {
		return ErrInjectedSync
	}
	return f.inner.SyncDir(name)
}

func (f *Fault) Stat(name string) (fs.FileInfo, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

// faultFile intercepts writes and syncs on an open file.
type faultFile struct {
	f     *Fault
	inner File
}

// Write crashes mid-write when the crash point fires: half the buffer
// reaches the file (a torn write), the rest is lost, and the error
// reports the crash. Recovery code must cope with that torn tail.
func (ff *faultFile) Write(p []byte) (int, error) { return ff.write(p, ff.inner.Write) }

// WriteAt is a crash point like Write, torn the same way: half the
// buffer reaches the file at off.
func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return ff.write(p, func(b []byte) (int, error) { return ff.inner.WriteAt(b, off) })
}

func (ff *faultFile) write(p []byte, write func([]byte) (int, error)) (int, error) {
	torn, err := ff.f.stepWrite()
	if err != nil {
		if torn && len(p) > 0 {
			n, _ := write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.f.step(); err != nil {
		return err
	}
	if ff.f.takeSyncFail() {
		return ErrInjectedSync
	}
	return ff.inner.Sync()
}

// Close is never fault-injected: a dying process's descriptors close
// anyway, and recovery re-opens everything.
func (ff *faultFile) Close() error { return ff.inner.Close() }
