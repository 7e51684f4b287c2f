package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"she/internal/failfs"
)

// workload runs a fixed append/sync/checkpoint script against fsys,
// returning the payloads that were acknowledged — i.e. made durable by
// a successful Sync or Checkpoint — before the first error. The state
// snapshot written at each checkpoint is the acked list itself, so a
// recovery can be compared line for line.
func workload(fsys failfs.FS, dir string) (acked []string, err error) {
	l, _, err := Open(dir, Options{FS: fsys, SegmentBytes: 96})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	// The state streams in one write a payload, so a crash can tear the
	// sealed file between them, and at its header.
	writeState := func(snapDir string, f failfs.FS) error {
		return WriteSealed(f, filepath.Join(snapDir, "state"), 0o644, func(w io.Writer) error {
			for i, p := range acked {
				if i > 0 {
					p = "\n" + p
				}
				if _, err := io.WriteString(w, p); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("payload-%02d", i)
		if err := appendOne(l, []byte(p)); err != nil {
			return acked, err
		}
		if err := l.Sync(); err != nil {
			return acked, err
		}
		acked = append(acked, p)
		if i == 3 || i == 8 {
			if err := l.Checkpoint(writeState); err != nil {
				return acked, err
			}
		}
	}
	return acked, nil
}

// allPayloads is everything workload ever appends, in order.
func allPayloads() []string {
	out := make([]string, 12)
	for i := range out {
		out[i] = fmt.Sprintf("payload-%02d", i)
	}
	return out
}

// recoverState reopens dir with a healthy filesystem — the restart
// after the crash — and reconstructs the full state: checkpoint
// snapshot plus replayed records.
func recoverState(t *testing.T, dir string) []string {
	t.Helper()
	l, rec, err := Open(dir, Options{FS: failfs.OS{}, SegmentBytes: 96})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer l.Close()
	// A pure crash tears the tail; it must never read as CRC
	// corruption of a whole segment.
	if len(rec.CorruptSegments) != 0 || len(rec.OrphanedSegments) != 0 {
		t.Fatalf("crash produced corrupt/orphaned segments: %+v", rec)
	}
	var state []string
	if rec.SnapDir != "" {
		data, err := failfs.OS{}.ReadFile(filepath.Join(rec.SnapDir, "state"))
		if err != nil {
			t.Fatalf("reading checkpoint state: %v", err)
		}
		payload, err := Unseal(data)
		if err != nil {
			t.Fatalf("checkpoint state corrupt: %v", err)
		}
		if len(payload) > 0 {
			state = strings.Split(string(payload), "\n")
		}
	}
	for _, r := range rec.Records {
		state = append(state, string(r))
	}
	return state
}

// TestCrashAtEveryPoint simulates kill -9 at every single mutating
// filesystem operation of the workload — every write, fsync, rename,
// remove, truncate, create, and directory sync, including all of them
// inside checkpoints — and asserts after each that recovery:
//
//  1. never fails and never panics,
//  2. loses no acknowledged payload (acked is a prefix of the state),
//  3. invents nothing (the state is a prefix of what was appended).
func TestCrashAtEveryPoint(t *testing.T) {
	probe := failfs.NewFault(failfs.OS{})
	ackedAll, err := workload(probe, t.TempDir())
	if err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	if len(ackedAll) != 12 {
		t.Fatalf("probe acked %d payloads", len(ackedAll))
	}
	total := probe.Steps()
	if total < 30 {
		t.Fatalf("suspiciously few fault points: %d", total)
	}
	full := allPayloads()

	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		fault := failfs.NewFault(failfs.OS{})
		fault.CrashAt(k)
		acked, err := workload(fault, dir)
		if err == nil {
			t.Fatalf("crash at step %d did not surface", k)
		}
		if !errors.Is(err, failfs.ErrCrashed) {
			t.Fatalf("crash at step %d surfaced as %v", k, err)
		}

		state := recoverState(t, dir)
		if len(state) < len(acked) {
			t.Fatalf("crash at step %d: lost acknowledged writes: acked %d, recovered %d (%v)",
				k, len(acked), len(state), state)
		}
		for i, want := range acked {
			if state[i] != want {
				t.Fatalf("crash at step %d: recovered[%d] = %q, want acked %q", k, i, state[i], want)
			}
		}
		if len(state) > len(full) {
			t.Fatalf("crash at step %d: recovered %d payloads, only %d ever appended", k, len(state), len(full))
		}
		for i, got := range state {
			if got != full[i] {
				t.Fatalf("crash at step %d: recovered[%d] = %q, want %q — state invented data", k, i, got, full[i])
			}
		}
	}
}

// TestSyncFailureIsSticky: after an injected fsync error the log
// refuses further appends and syncs rather than acknowledging writes
// whose durability it cannot prove.
func TestSyncFailureIsSticky(t *testing.T) {
	fault := failfs.NewFault(failfs.OS{})
	dir := t.TempDir()
	l, _, err := Open(dir, Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := appendOne(l, []byte("a")); err != nil {
		t.Fatal(err)
	}
	fault.FailSyncs(1)
	if err := l.Sync(); !errors.Is(err, failfs.ErrInjectedSync) {
		t.Fatalf("Sync = %v, want injected error", err)
	}
	if err := appendOne(l, []byte("b")); !errors.Is(err, failfs.ErrInjectedSync) {
		t.Fatalf("Append after failed sync = %v, want sticky error", err)
	}
	if err := l.Sync(); !errors.Is(err, failfs.ErrInjectedSync) {
		t.Fatalf("second Sync = %v, want sticky error", err)
	}
}
