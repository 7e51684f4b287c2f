package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"she/internal/repl"
	"she/internal/wal"
)

// testKeys is n pseudo-random keys from seed.
func testKeys(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

// textInsertLine renders an insert the way binaries before the insert
// record logged it: the verb, the name, the keys in decimal.
func textInsertLine(verb, name string, keys []uint64) []byte {
	var sb strings.Builder
	sb.WriteString(verb + " " + name)
	for _, k := range keys {
		fmt.Fprintf(&sb, " %d", k)
	}
	return []byte(sb.String())
}

// FuzzInsertRecord pins the format from both sides. Encoding any valid
// name with 0…2^14 keys decodes to the same name and keys and is not a
// command; arbitrary bytes never panic the decoder and are accepted only
// when the tag, the name length and a whole number of keys all hold, in
// which case they are exactly what the encoder writes; and no text
// record — the lines this binary and older ones log — decodes as an
// insert record, just as nothing ParseCommand accepts does.
func FuzzInsertRecord(f *testing.F) {
	f.Add("flows", uint16(3), int64(1), []byte("\x01\x01b\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Add("b", uint16(0), int64(2), []byte("MINSERT b 1 2 3"))
	f.Add("a.b:c-d_e", uint16(1<<14), int64(3), []byte{insertTag})
	f.Add(strings.Repeat("n", maxNameLen), uint16(127), int64(4), []byte{insertTag, 0})
	f.Add("x", uint16(1), int64(5), []byte{insertTag, 200, 'x'})
	f.Add("x", uint16(1), int64(6), []byte("\x01\x01x1234567"))
	f.Fuzz(func(t *testing.T, name string, n uint16, seed int64, raw []byte) {
		if ValidName(name) {
			keys := testKeys(seed, int(n)%(1<<14+1))
			rec := AppendInsertRecord([]byte("kept"), []byte(name), keys)[4:]
			if !isInsertRecord(rec) {
				t.Fatalf("encoded record does not start with the tag: %.8q", rec)
			}
			gotName, gotKeys, err := decodeInsertRecord(rec, []uint64{99})
			if err != nil || string(gotName) != name || !slices.Equal(gotKeys, keys) {
				t.Fatalf("round trip of %q with %d keys: name %q, %d keys, err %v", name, len(keys), gotName, len(gotKeys), err)
			}
			if cmd, err := ParseCommand(string(rec)); err == nil {
				t.Fatalf("insert record parsed as command %q", cmd.Name)
			}
			for _, line := range [][]byte{
				textInsertLine("MINSERT", name, keys[:min(len(keys), 4)]),
				textInsertLine("SKETCH.INSERT", name, keys[:min(len(keys), 1)]),
				[]byte("SKETCH.CREATE " + name + " bloom bits=64"),
				[]byte("SKETCH.DROP " + name),
			} {
				if _, _, err := decodeInsertRecord(line, nil); err == nil || isInsertRecord(line) {
					t.Fatalf("text record %.40q decodes as an insert record", line)
				}
			}
		}

		gotName, gotKeys, err := decodeInsertRecord(raw, nil)
		if err != nil {
			return
		}
		if raw[0] != insertTag || len(gotName) == 0 || len(gotName) > maxNameLen ||
			int(raw[1]) != len(gotName) || len(raw) != 2+len(gotName)+8*len(gotKeys) {
			t.Fatalf("accepted %.40q as name %q with %d keys", raw, gotName, len(gotKeys))
		}
		if again := AppendInsertRecord(nil, gotName, gotKeys); !bytes.Equal(again, raw) {
			t.Fatalf("accepted bytes are not what the encoder writes:\n got %x\nwant %x", raw, again)
		}
		if cmd, err := ParseCommand(string(raw)); err == nil {
			t.Fatalf("bytes accepted as an insert record also parse as command %q", cmd.Name)
		}
	})
}

// mustMarshal serializes a sketch for byte comparison.
func mustMarshal(t testing.TB, sk *Sketch) []byte {
	t.Helper()
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// registryImage is every sketch of a server, serialized, by name.
func registryImage(t testing.TB, s *Server) map[string][]byte {
	t.Helper()
	img := make(map[string][]byte)
	for _, in := range s.reg.List() {
		img[in.Name] = mustMarshal(t, in.Sketch)
	}
	return img
}

func sameImage(t testing.TB, what string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sketches, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !bytes.Equal(g, w) {
			t.Fatalf("%s: sketch %q differs (present=%v, %d vs %d bytes)", what, name, ok, len(g), len(w))
		}
	}
}

// TestReplayMixedFormatLog: in a log that interleaves text MINSERT and
// SKETCH.INSERT lines — what binaries before the insert record wrote —
// with insert records, each text insert line is refused and counted in
// wal_replay_skipped, and the rest recovers to exactly the sketches that
// the insert records' keys, fed in the same order through Insert, build.
// An insert record naming a dropped sketch is counted as skipped too,
// and the records behind it still replay.
func TestReplayMixedFormatLog(t *testing.T) {
	specs := []struct{ name, kind, params string }{
		{"b", "bloom", "bits=8192 window=4096 shards=2"},
		{"c", "cm", "counters=2048 window=4096 shards=2"},
		{"h", "hll", "registers=256 window=4096 shards=2"},
	}
	want := make(map[string]*Sketch)
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	add := func(rec []byte) {
		t.Helper()
		if err := l.AppendBatch([][]byte{rec}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, sp := range specs {
		add([]byte("SKETCH.CREATE " + sp.name + " " + sp.kind + " " + sp.params))
		kv, err := ParseKV(strings.Fields(sp.params))
		if err != nil {
			t.Fatal(err)
		}
		if want[sp.name], err = NewSketch(sp.kind, kv); err != nil {
			t.Fatal(err)
		}
	}
	feed := func(name string, keys []uint64) {
		for _, k := range keys {
			want[name].Insert(k)
		}
	}
	records, text := 3, 0
	for round := 0; round < 40; round++ {
		sp := specs[round%3]
		keys := testKeys(int64(round), 1+round*7%120)
		switch {
		case round < 12: // what an older batch engine wrote
			add(textInsertLine("MINSERT", sp.name, keys))
			text++
		case round < 20: // what its slow path wrote
			add(textInsertLine("SKETCH.INSERT", sp.name, keys))
			text++
		case round%5 == 0:
			add(textInsertLine("MINSERT", sp.name, keys))
			text++
		default:
			add(AppendInsertRecord(nil, []byte(sp.name), keys))
			feed(sp.name, keys)
			records++
		}
	}
	add([]byte("SKETCH.CREATE gone bloom bits=4096 window=1024"))
	add([]byte("SKETCH.DROP gone"))
	add(AppendInsertRecord(nil, []byte("gone"), []uint64{1, 2, 3})) // skipped
	big := testKeys(99, 5000)
	add(AppendInsertRecord(nil, []byte("c"), big))
	feed("c", big)
	records += 3
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s := startWAL(t, dir, nil, 0)
	if got := s.Counters()["wal_replay_skipped"]; got != int64(text+1) {
		t.Fatalf("wal_replay_skipped = %d, want %d (the text insert lines and the record for the dropped sketch)", got, text+1)
	}
	if got := s.Counters()["wal_replayed_records"]; got != int64(records) {
		t.Fatalf("wal_replayed_records = %d, want %d", got, records)
	}
	wantImg := make(map[string][]byte)
	for name, sk := range want {
		wantImg[name] = mustMarshal(t, sk)
	}
	sameImage(t, "recovered registry", registryImage(t, s), wantImg)

	// A follower refuses the same line by name, and the burst fails.
	line := textInsertLine("MINSERT", "c", []uint64{1})
	err = (&replTarget{s: s}).ApplyBurst([]repl.Record{{Payload: line}})
	if err == nil || !strings.Contains(err.Error(), "predates insert records") {
		t.Fatalf("ApplyBurst(%q) = %v, want it refused by name", line, err)
	}
}

// TestInsertRecordSplit: the largest run a batch can hold for one
// sketch — batchMaxKeys-1 keys and then one more line of MaxArgs-2 — is
// one record for the longest name, within wal.MaxRecordBytes, and
// replays to the same sketch. That bound is what the compile-time guard
// in insertrecord.go holds for every batch.
func TestInsertRecordSplit(t *testing.T) {
	dir := t.TempDir()
	s := startWAL(t, dir, nil, 64<<20)
	name := strings.Repeat("f", maxNameLen)
	c := dial(t, s.Addr().String())
	c.must("SKETCH.CREATE "+name+" bloom bits=65536 window=65536 shards=2", "+OK")
	keys := testKeys(7, batchMaxKeys+MaxArgs-3)
	before := s.ctr.WALRecords.Value()
	b := &connBatch{s: s, bw: &syncWriter{s: s}}
	g := b.group([]byte(name))
	g.keys = append(g.keys, keys...)
	b.cmds, b.nkeys = 1, len(keys)
	if err := b.applyInserts(); err != nil {
		t.Fatal(err)
	}
	if got := s.ctr.WALRecords.Value() - before; got != 1 {
		t.Fatalf("%d keys logged as %d records, want 1", len(keys), got)
	}
	if n := len(b.recs[0]); n != 2+maxNameLen+8*len(keys) || n > wal.MaxRecordBytes {
		t.Fatalf("record of %d bytes, want %d, at most wal.MaxRecordBytes", n, 2+maxNameLen+8*len(keys))
	}
	if err := s.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	want := registryImage(t, s)
	s.Abort()

	s2 := startWAL(t, dir, nil, 64<<20)
	sameImage(t, "replayed registry", registryImage(t, s2), want)
}
