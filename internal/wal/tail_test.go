package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"she/internal/failfs"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func readAll(t *testing.T, l *Log, c Cursor) ([]string, Cursor) {
	t.Helper()
	recs, next, err := l.ReadFrom(c, 0, nil)
	if err != nil {
		t.Fatalf("ReadFrom(%v): %v", c, err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r.Payload)
	}
	return out, next
}

// TestTailReaderBasic: appended-and-synced records stream from the
// zero-position cursor, and the returned cursor resumes exactly after
// them.
func TestTailReaderBasic(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()

	start := l.Position()
	for _, p := range []string{"one", "two", "three"} {
		if err := appendOne(l, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, next := readAll(t, l, start)
	if len(got) != 3 || got[0] != "one" || got[2] != "three" {
		t.Fatalf("records = %q", got)
	}
	if next != l.Position() {
		t.Fatalf("next = %v, tip = %v", next, l.Position())
	}
	// Resuming from the tip yields nothing.
	if again, _ := readAll(t, l, next); len(again) != 0 {
		t.Fatalf("resume read = %q, want none", again)
	}
}

// TestTailReaderUnsyncedInvisible: the tail reader must never expose
// appended-but-unsynced bytes — they are not durable, so a replica
// holding them could be *ahead* of crash recovery.
func TestTailReaderUnsyncedInvisible(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	start := l.Position()

	if err := appendOne(l, []byte("volatile")); err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(t, l, start); len(got) != 0 {
		t.Fatalf("unsynced read = %q, want none", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(t, l, start); len(got) != 1 || got[0] != "volatile" {
		t.Fatalf("post-sync read = %q", got)
	}
}

// TestTailReaderTornTail: a torn frame on disk past the durable
// watermark (the on-disk signature of a crash mid-append) is never
// served; reads stop exactly at the watermark. This is the
// bounds-checked-tail-reader satellite case.
func TestTailReaderTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	defer l.Close()
	start := l.Position()

	if err := appendOne(l, []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	tip := l.Position()

	// Scribble a torn frame directly into the active segment file,
	// bypassing the Log — exactly what a crash mid-append leaves.
	frame := EncodeRecord(nil, []byte("torn-casualty"))
	f, err := os.OpenFile(filepath.Join(dir, segName(tip.Seg)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, next := readAll(t, l, start)
	if len(got) != 1 || got[0] != "whole" {
		t.Fatalf("records = %q, want [whole]", got)
	}
	if next != tip {
		t.Fatalf("next = %v, want durable tip %v", next, tip)
	}
}

// TestTailReaderAcrossRotation: records stream seamlessly across a
// segment rotation, a cursor at the end of a sealed segment advances
// into the next one, and each record's End is the end cursor
// AppendBatch reported for it — what a replica acknowledges is what a
// semi-synchronous commit waits for, rotations inside the batch
// included.
func TestTailReaderAcrossRotation(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{SegmentBytes: 64})
	defer l.Close()
	start := l.Position()

	var want []string
	payloads := make([][]byte, 20)
	for i := range payloads {
		p := string(rune('a'+i%26)) + "-payload-padding-0123456789"
		want = append(want, p)
		payloads[i] = []byte(p)
	}
	ends := make([]Cursor, len(payloads))
	if err := l.AppendBatch(payloads, ends); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Position().Seg == start.Seg {
		t.Fatal("expected at least one rotation")
	}
	got, next, err := l.ReadFrom(start, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i].Payload) != want[i] || got[i].End != ends[i] {
			t.Fatalf("record %d = %q ending at %v, want %q ending at %v", i, got[i].Payload, got[i].End, want[i], ends[i])
		}
	}
	if next != l.Position() {
		t.Fatalf("next = %v, tip = %v", next, l.Position())
	}

	// A tiny byte budget still makes progress, one frame at a time.
	var stepwise []string
	c := start
	for {
		recs, n, err := l.ReadFrom(c, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			stepwise = append(stepwise, string(r.Payload))
		}
		c = n
	}
	if len(stepwise) != len(want) {
		t.Fatalf("stepwise got %d records, want %d", len(stepwise), len(want))
	}
}

// TestTailReaderCheckpointTruncation: once a checkpoint deletes the
// segments behind a cursor, ReadFrom reports ErrCursorGone (the
// replica must full-resync), while SetRetain keeps them readable.
func TestTailReaderCheckpointTruncation(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{SegmentBytes: 64})
	defer l.Close()
	start := l.Position()

	for i := 0; i < 10; i++ {
		if err := appendOne(l, []byte("record-padding-padding-padding")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	writeNothing := func(dir string, fsys failfs.FS) error { return nil }
	if err := l.Checkpoint(writeNothing); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ReadFrom(start, 0, nil); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("ReadFrom after checkpoint = %v, want ErrCursorGone", err)
	}

	// With retention armed at the replica's position, a checkpoint
	// keeps the old segments readable.
	start2 := l.Position()
	for i := 0; i < 10; i++ {
		if err := appendOne(l, []byte("record-padding-padding-padding")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.SetRetain(start2.Seg)
	if err := l.Checkpoint(writeNothing); err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(t, l, start2)
	if len(got) != 10 {
		t.Fatalf("retained read = %d records, want 10", len(got))
	}
}

// TestTailReaderSnapshotInfo: the tip taken just after a checkpoint is
// where a replica bootstrapped from that snapshot tails from: it
// replays exactly the records that follow, none from before.
func TestTailReaderSnapshotInfo(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	if err := appendOne(l, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(func(dir string, fsys failfs.FS) error { return nil }); err != nil {
		t.Fatal(err)
	}
	startC := l.Position()
	for _, p := range []string{"post", "post2"} {
		if err := appendOne(l, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(t, l, startC)
	if len(got) != 2 || got[0] != "post" || got[1] != "post2" {
		t.Fatalf("post-checkpoint stream = %q, want [post post2]", got)
	}
}

// TestTailReaderNotifyAndDistance: SyncNotify wakes on sync, and
// DistanceBytes measures exactly the framed bytes between cursors.
func TestTailReaderNotifyAndDistance(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()

	ch := l.SyncNotify()
	select {
	case <-ch:
		t.Fatal("notify fired before any sync")
	default:
	}
	from := l.Position()
	if err := appendOne(l, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("notify did not fire on sync")
	}
	to := l.Position()
	want := int64(len(EncodeRecord(nil, []byte("x"))))
	if d := l.DistanceBytes(from, to); d != want {
		t.Fatalf("DistanceBytes = %d, want %d", d, want)
	}
	if d := l.DistanceBytes(to, from); d != 0 {
		t.Fatalf("reverse DistanceBytes = %d, want 0", d)
	}
}

// TestTailReaderRestartResume: a cursor taken before a clean restart
// keeps working afterwards — Open records the validated sizes of the
// sealed segments it scanned.
func TestTailReaderRestartResume(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	start := l.Position()
	if err := appendOne(l, []byte("before-restart")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, _ := mustOpen(t, dir, Options{})
	defer l2.Close()
	if err := appendOne(l2, []byte("after-restart")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(t, l2, start)
	if len(got) != 2 || got[0] != "before-restart" || got[1] != "after-restart" {
		t.Fatalf("records across restart = %q", got)
	}
}

// TestTailReaderBudgetAndReuse: one TailBuf serves a whole tailing
// session. Records of every size — smaller than the byte budget, a
// multiple of it, the largest a record may be — come back whole and in
// order across segment rotations, a call never returns more than its
// budget plus one record, and once the buffer has grown to fit the
// largest read, a pass allocates next to nothing: file names and
// handles, never segment bytes.
func TestTailReaderBudgetAndReuse(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{SegmentBytes: 256 << 10})
	defer l.Close()
	start := l.Position()
	const budget = 4096
	sizes := []int{10, 100, budget - 8, budget, 3*budget + 5, 20, MaxRecordBytes, 7, 2 * budget, 1}
	var want [][]byte
	for round := 0; round < 3; round++ {
		for i, n := range sizes {
			p := make([]byte, n)
			for j := range p {
				p[j] = byte(round*31 + i*7 + j)
			}
			want = append(want, p)
			if err := appendOne(l, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Position().Seg == start.Seg {
		t.Fatal("expected rotations")
	}

	read := func(tb *TailBuf) (readBytes int) {
		c, i := start, 0
		for {
			recs, next, err := l.ReadFrom(c, budget, tb)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				break
			}
			var got, largest int
			for _, r := range recs {
				if i == len(want) || !bytes.Equal(r.Payload, want[i]) {
					t.Fatalf("record %d: %d bytes, want %d", i, len(r.Payload), len(want[i]))
				}
				got += len(r.Payload) + recordHeaderLen
				largest = max(largest, len(r.Payload)+recordHeaderLen)
				i++
			}
			if got > budget+largest {
				t.Fatalf("call returned %d bytes on a budget of %d (largest record %d)", got, budget, largest)
			}
			readBytes += got
			c = next
		}
		if i != len(want) {
			t.Fatalf("read %d records, want %d", i, len(want))
		}
		return readBytes
	}
	var tb TailBuf
	read(&tb) // grows the buffer to the largest record
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	readBytes := read(&tb)
	runtime.ReadMemStats(&after)
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > uint64(readBytes)/20 {
		t.Fatalf("a pass over %d log bytes with a warm TailBuf allocated %d bytes", readBytes, allocated)
	}

	// The steady state of a tailing reader — the same segment call after
	// call — allocates what opening and reading the file allocates and
	// nothing of its own: no segment name is formatted, no path joined.
	tail := Cursor{Gen: l.Position().Gen, Seg: l.Position().Seg}
	const whole = 1 << 20 // the segment in one read
	if recs, _, err := l.ReadFrom(tail, whole, &tb); err != nil || len(recs) == 0 {
		t.Fatalf("ReadFrom(%v) = %d records, %v", tail, len(recs), err)
	}
	path, buf := filepath.Join(l.dir, segName(tail.Seg)), make([]byte, budget)
	file := testing.AllocsPerRun(100, func() { l.fs.ReadFileAt(path, 0, buf) })
	if call := testing.AllocsPerRun(100, func() { l.ReadFrom(tail, whole, &tb) }); call > file {
		t.Fatalf("a steady-state ReadFrom allocates %g times, reading the file alone %g", call, file)
	}
}
