package failfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestOSRoundtrip(t *testing.T) {
	fsys := OS{}
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := fsys.Truncate(path, 2); err != nil {
		t.Fatal(err)
	}
	if fi, err := fsys.Stat(path); err != nil || fi.Size() != 2 {
		t.Fatalf("after truncate: %v %v", fi, err)
	}
	path2 := filepath.Join(dir, "b.txt")
	if err := fsys.Rename(path, path2); err != nil {
		t.Fatal(err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "b.txt" {
		t.Fatalf("ReadDir = %v, %v", entries, err)
	}
	if err := fsys.Remove(path2); err != nil {
		t.Fatal(err)
	}
}

func TestFaultCrashAtIsSticky(t *testing.T) {
	fault := NewFault(OS{})
	dir := t.TempDir()
	fault.CrashAt(3)
	// Step 1: create. Step 2: write. Step 3 (sync) crashes.
	f, err := fault.OpenFile(filepath.Join(dir, "x"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Sync = %v, want crash at step 3", err)
	}
	if !fault.Crashed() {
		t.Fatal("Crashed() = false after crash point")
	}
	// Dead: everything fails from here.
	if _, err := f.Write([]byte("more")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Write = %v", err)
	}
	if _, err := fault.ReadFile(filepath.Join(dir, "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash ReadFile = %v", err)
	}
	if err := fault.Rename("a", "b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Rename = %v", err)
	}
	// The bytes written before the crash survive for recovery.
	if data, err := os.ReadFile(filepath.Join(dir, "x")); err != nil || string(data) != "ok" {
		t.Fatalf("surviving bytes = %q, %v", data, err)
	}
}

func TestFaultTornWrite(t *testing.T) {
	fault := NewFault(OS{})
	dir := t.TempDir()
	path := filepath.Join(dir, "torn")
	f, err := fault.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644) // step 1
	if err != nil {
		t.Fatal(err)
	}
	fault.CrashAt(2) // the write itself
	if _, err := f.Write([]byte("0123456789")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Write = %v, want crash", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "01234" {
		t.Fatalf("torn write left %q, want the half prefix", data)
	}
}

// TestFaultTornWriteAt: a write at an offset is a crash point too, torn
// the same way — half the buffer lands at the offset.
func TestFaultTornWriteAt(t *testing.T) {
	fault := NewFault(OS{})
	path := filepath.Join(t.TempDir(), "torn")
	f, err := fault.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644) // step 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("..........")); err != nil { // step 2
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ab"), 8); err != nil { // step 3
		t.Fatal(err)
	}
	fault.CrashAt(4)
	if _, err := f.WriteAt([]byte("0123"), 2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("WriteAt = %v, want crash", err)
	}
	if fault.Steps() != 4 {
		t.Fatalf("steps = %d, want 4", fault.Steps())
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "..01....ab" {
		t.Fatalf("torn WriteAt left %q, %v, want the half at the offset", data, err)
	}
}

func TestFaultSyncErrorNotSticky(t *testing.T) {
	fault := NewFault(OS{})
	dir := t.TempDir()
	f, err := fault.OpenFile(filepath.Join(dir, "x"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fault.FailSyncs(1)
	if err := f.Sync(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("Sync = %v, want injected error", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second Sync = %v, want success", err)
	}
	if fault.Crashed() {
		t.Fatal("injected sync error must not crash the filesystem")
	}
}

func TestFaultStepCounting(t *testing.T) {
	fault := NewFault(OS{})
	dir := t.TempDir()
	before := fault.Steps()
	f, _ := fault.OpenFile(filepath.Join(dir, "x"), os.O_WRONLY|os.O_CREATE, 0o644)
	f.Write([]byte("a"))
	f.Sync()
	f.Close() // not counted
	fault.ReadFile(filepath.Join(dir, "x"))
	fault.SyncDir(dir)
	if got := fault.Steps() - before; got != 4 {
		t.Fatalf("counted %d mutating steps, want 4 (open, write, sync, syncdir)", got)
	}
}
