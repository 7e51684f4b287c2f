package wal

import (
	"testing"

	"she/internal/failfs"
	"she/internal/obs"
)

// TestLatencyHistogramsWired checks that wiring SyncLatency and
// CheckpointLatency through Options actually feeds them: every explicit
// Sync and every rotation seal-sync lands in the fsync histogram, and
// each successful Checkpoint lands in the checkpoint histogram.
func TestLatencyHistogramsWired(t *testing.T) {
	dir := t.TempDir()
	syncH := &obs.Histogram{}
	chkH := &obs.Histogram{}
	l, _ := openT(t, dir, Options{SyncLatency: syncH, CheckpointLatency: chkH})

	for _, p := range testPayloads(5) {
		if err := appendOne(l, p); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := syncH.Snapshot().Count; got != 5 {
		t.Fatalf("sync histogram count = %d, want 5", got)
	}
	// A clean (non-dirty) Sync is a no-op and must not observe.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := syncH.Snapshot().Count; got != 5 {
		t.Fatalf("no-op Sync observed: count = %d, want 5", got)
	}

	if err := l.Checkpoint(func(gdir string, fsys failfs.FS) error {
		return writeState(fsys, gdir, "s")
	}); err != nil {
		t.Fatal(err)
	}
	if got := chkH.Snapshot().Count; got != 1 {
		t.Fatalf("checkpoint histogram count = %d, want 1", got)
	}
	if chkH.Snapshot().SumNs == 0 {
		t.Fatal("checkpoint histogram recorded zero total time")
	}

	// Checkpoint rotates a dirty segment, which seal-syncs: append one
	// record (dirty), checkpoint, and expect one more fsync observation.
	if err := appendOne(l, []byte("post")); err != nil {
		t.Fatal(err)
	}
	before := syncH.Snapshot().Count
	if err := l.Checkpoint(func(gdir string, fsys failfs.FS) error {
		return writeState(fsys, gdir, "s")
	}); err != nil {
		t.Fatal(err)
	}
	if got := syncH.Snapshot().Count; got != before+1 {
		t.Fatalf("seal-sync not observed: count = %d, want %d", got, before+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNilHistogramsSafe exercises the nil-histogram path (the default):
// no Options histograms, everything still works.
func TestNilHistogramsSafe(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if err := appendOne(l, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
