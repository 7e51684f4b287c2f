package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"she/internal/failfs"
)

func testPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%03d-%s", i, strings.Repeat("x", i%7)))
	}
	return out
}

// appendOne appends one record, a batch of one.
func appendOne(l *Log, p []byte) error { return l.AppendBatch([][]byte{p}, nil) }

func openT(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func TestRecordRoundtrip(t *testing.T) {
	var buf []byte
	payloads := testPayloads(10)
	for _, p := range payloads {
		buf = EncodeRecord(buf, p)
	}
	off := 0
	for i, want := range payloads {
		got, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %q want %q", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestAppendSyncReplay(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{})
	if len(rec.Records) != 0 || rec.SnapDir != "" {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	payloads := testPayloads(20)
	for _, p := range payloads {
		if err := appendOne(l, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := openT(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(rec2.Records), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(rec2.Records[i], p) {
			t.Fatalf("record %d: got %q want %q", i, rec2.Records[i], p)
		}
	}
	if rec2.Damaged() {
		t.Fatalf("clean log reported damage: %+v", rec2)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 64})
	payloads := testPayloads(30)
	for _, p := range payloads {
		if err := appendOne(l, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", segs)
	}
	_, rec := openT(t, dir, Options{SegmentBytes: 64})
	if len(rec.Records) != len(payloads) {
		t.Fatalf("replayed %d records across segments, want %d", len(rec.Records), len(payloads))
	}
	if rec.SegmentsScanned != segs {
		t.Fatalf("scanned %d segments, want %d", rec.SegmentsScanned, segs)
	}
}

// segmentBytesAfter writes payloads through a Log and returns the raw
// bytes of the single resulting segment file and its name.
func segmentBytesAfter(t *testing.T, payloads [][]byte) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for _, p := range payloads {
		if err := appendOne(l, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			return e.Name(), data
		}
	}
	t.Fatal("no segment file written")
	return "", nil
}

// TestTornTailEveryCut truncates a segment at every possible byte
// length and asserts recovery always yields exactly the records whose
// frames fit completely — a torn tail is cut, never misread, and
// recovery never fails or panics.
func TestTornTailEveryCut(t *testing.T) {
	payloads := testPayloads(6)
	name, full := segmentBytesAfter(t, payloads)

	// frameEnds[i] = offset just past record i's frame.
	var frameEnds []int
	off := 0
	for off < len(full) {
		_, n, err := DecodeRecord(full[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		frameEnds = append(frameEnds, off)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		want := 0
		for _, end := range frameEnds {
			if end <= cut {
				want++
			}
		}
		if len(rec.Records) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec.Records), want)
		}
		for i := 0; i < want; i++ {
			if !bytes.Equal(rec.Records[i], payloads[i]) {
				t.Fatalf("cut %d: record %d corrupted: %q", cut, i, rec.Records[i])
			}
		}
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			if want > 0 && fi.Size() != int64(frameEnds[want-1]) {
				t.Fatalf("cut %d: torn tail not truncated: size %d", cut, fi.Size())
			}
			if want == 0 && fi.Size() != 0 {
				t.Fatalf("cut %d: torn tail not truncated to zero: size %d", cut, fi.Size())
			}
		}
		l.Close()
	}
}

// TestCorruptBitEveryOffset flips a bit at every offset of a non-last
// segment and asserts: recovery never fails, never panics, never
// returns a record that was not written, replays the intact prefix,
// refuses the segments after the gap, and quarantines the damaged
// files at the next checkpoint.
func TestCorruptBitEveryOffset(t *testing.T) {
	payloads := testPayloads(4)
	var seg0 []byte
	for _, p := range payloads {
		seg0 = EncodeRecord(seg0, p)
	}
	tail := [][]byte{[]byte("later-segment-record")}
	var seg1 []byte
	for _, p := range tail {
		seg1 = EncodeRecord(seg1, p)
	}

	for off := 0; off < len(seg0); off++ {
		for _, mask := range []byte{0x01, 0x80} {
			dir := t.TempDir()
			corrupted := append([]byte(nil), seg0...)
			corrupted[off] ^= mask
			if err := os.WriteFile(filepath.Join(dir, segName(0)), corrupted, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segName(1)), seg1, 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("off %d: Open: %v", off, err)
			}
			// Every recovered record must be one we wrote, in order.
			for i, r := range rec.Records {
				if i >= len(payloads) || !bytes.Equal(r, payloads[i]) {
					t.Fatalf("off %d: replayed corrupt record %d: %q", off, i, r)
				}
			}
			if len(rec.Records) >= len(payloads) {
				t.Fatalf("off %d: corruption at offset %d went undetected", off, off)
			}
			if len(rec.CorruptSegments) != 1 || rec.CorruptSegments[0] != segName(0) {
				t.Fatalf("off %d: corrupt segments = %v", off, rec.CorruptSegments)
			}
			if len(rec.OrphanedSegments) != 1 || rec.OrphanedSegments[0] != segName(1) {
				t.Fatalf("off %d: orphaned segments = %v", off, rec.OrphanedSegments)
			}
			// Checkpoint quarantines the damaged files.
			err = l.Checkpoint(func(snapDir string, fsys failfs.FS) error {
				return writeState(fsys, snapDir, "s")
			})
			if err != nil {
				t.Fatalf("off %d: checkpoint: %v", off, err)
			}
			if _, err := os.Stat(filepath.Join(dir, segName(0)+".corrupt")); err != nil {
				t.Fatalf("off %d: corrupt segment not quarantined: %v", off, err)
			}
			if _, err := os.Stat(filepath.Join(dir, segName(1)+".orphaned")); err != nil {
				t.Fatalf("off %d: orphaned segment not parked: %v", off, err)
			}
			l.Close()
		}
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	state := []string{}
	writeState := func(snapDir string, fsys failfs.FS) error {
		return writeState(fsys, snapDir, strings.Join(state, "\n"))
	}
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("rec-%d", i)
		if err := appendOne(l, []byte(p)); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		state = append(state, p)
		if i == 4 {
			if err := l.Checkpoint(writeState); err != nil {
				t.Fatal(err)
			}
			if got := l.BytesSinceCheckpoint(); got != 0 {
				t.Fatalf("BytesSinceCheckpoint after checkpoint = %d", got)
			}
			if gen := l.Position().Gen; gen != 1 {
				t.Fatalf("gen = %d, want 1", gen)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := openT(t, dir, Options{})
	if rec.SnapDir == "" {
		t.Fatal("no snapshot generation recovered")
	}
	data, err := os.ReadFile(filepath.Join(rec.SnapDir, "state"))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := Unseal(data)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(string(payload), "\n")
	if len(got) != 5 || got[4] != "rec-4" {
		t.Fatalf("snapshot state = %v", got)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("replayed %d post-checkpoint records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		if want := fmt.Sprintf("rec-%d", i+5); string(r) != want {
			t.Fatalf("record %d = %q, want %q", i, r, want)
		}
	}
}

func TestManifestCorruptRefusesStart(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if err := appendOne(l, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(func(snapDir string, fsys failfs.FS) error {
		return writeState(fsys, snapDir, "")
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	path := filepath.Join(dir, currentFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A valid manifest round-trips; every single-byte flip is refused.
	if _, _, err := parseManifest(good); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	for off := 0; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x04
		if bytes.Equal(bad, good) {
			continue
		}
		if _, _, err := parseManifest(bad); err == nil {
			// Flips confined to trailing whitespace may legitimately
			// still parse; anything touching the body must not.
			if off < len(good)-1 {
				t.Fatalf("off %d: corrupt manifest %q accepted", off, bad)
			}
		}
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); err == nil && off < len(good)-1 {
			t.Fatalf("off %d: Open accepted corrupt manifest", off)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, _ := openT(t, dir, Options{})
	l2.Close()
}

// seal returns payload sealed: the header reserved ahead of a copy of
// it, then filled in.
func seal(payload []byte) []byte { return Seal(append(make([]byte, SealHeader), payload...)) }

// writeState writes payload as the sealed file "state" in dir.
func writeState(fsys failfs.FS, dir, payload string) error {
	return WriteSealed(fsys, filepath.Join(dir, "state"), 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, payload)
		return err
	})
}

func TestSealUnseal(t *testing.T) {
	payload := []byte("hello sealed world")
	sealed := seal(payload)
	got, err := Unseal(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("unsealed %q", got)
	}
	if _, err := Unseal([]byte("legacy bytes")); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("unsealed bytes: %v", err)
	}
	for off := 0; off < len(sealed); off++ {
		bad := append([]byte(nil), sealed...)
		bad[off] ^= 0x10
		if _, err := Unseal(bad); err == nil {
			t.Fatalf("off %d: corrupt seal accepted", off)
		}
	}
	for cut := 0; cut < len(sealed); cut++ {
		if _, err := Unseal(sealed[:cut]); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}

	// WriteSealed lays down Seal's bytes however the payload is split,
	// and a failed payload leaves neither the file nor its temporary.
	dir := t.TempDir()
	path := filepath.Join(dir, "s")
	for _, split := range []int{0, 1, 7, len(payload)} {
		err := WriteSealed(failfs.OS{}, path, 0o644, func(w io.Writer) error {
			w.Write(payload[:split])
			_, err := w.Write(payload[split:])
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, sealed) {
			t.Fatalf("split %d: WriteSealed wrote %q (%v), want %q", split, got, err, sealed)
		}
	}
	fail := errors.New("payload failed")
	if err := WriteSealed(failfs.OS{}, filepath.Join(dir, "f"), 0o644, func(io.Writer) error { return fail }); !errors.Is(err, fail) {
		t.Fatalf("failed payload: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "f*")); len(left) != 0 {
		t.Fatalf("failed payload left %q", left)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.she")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Quarantine(failfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if q != path+".corrupt" {
		t.Fatalf("quarantined to %q", q)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("original still present: %v", err)
	}
	if data, err := os.ReadFile(q); err != nil || string(data) != "junk" {
		t.Fatalf("quarantine lost bytes: %q %v", data, err)
	}
}
