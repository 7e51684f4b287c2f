package server

// Burst-apply tests: a follower applies what its stream had ready as one
// burst — apply all, log all in one batch, fsync once, acknowledge once.
// They check that the burst boundaries never show in the follower's
// state or its log: against a reference fed key by key, after an error
// in the middle of a burst, and after a crash at every filesystem
// operation. TestFollowerByteEqualAtEqualCursor holds a follower that
// checkpoints between bursts to its primary.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"she/internal/failfs"
	"she/internal/repl"
	"she/internal/wal"
)

// caughtUp reports whether the follower has acknowledged the primary's
// durable tip.
func caughtUp(primary, follower *Server) bool {
	f := follower.currentFollower()
	if f == nil {
		return false
	}
	st, tip := f.Status(), primary.wal.Position()
	return st.Connected && st.Cursor.Seg == tip.Seg && st.Cursor.Off == tip.Off
}

// scriptLines is a random mutation script over a handful of sketch
// names: creates, drops, single-key and batch inserts with decimal and
// hashed keys. Every line is valid when run in order.
func scriptLines(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{
		"bloom bits=8192 window=2048 shards=2",
		"cm counters=2048 window=2048 shards=2",
		"hll registers=256 window=2048 shards=2",
	}
	live := map[string]bool{}
	var names []string // live names, insertion-ordered for determinism
	var lines []string
	for len(lines) < n {
		switch r := rng.Intn(100); {
		case len(names) == 0 || (r < 6 && len(names) < 6):
			name := fmt.Sprintf("s%d", rng.Intn(8))
			if live[name] {
				continue
			}
			live[name] = true
			names = append(names, name)
			lines = append(lines, "SKETCH.CREATE "+name+" "+kinds[rng.Intn(len(kinds))])
		case r < 9 && len(names) > 1:
			i := rng.Intn(len(names))
			lines = append(lines, "SKETCH.DROP "+names[i])
			delete(live, names[i])
			names = append(names[:i], names[i+1:]...)
		case r < 30:
			lines = append(lines, fmt.Sprintf("SKETCH.INSERT %s %d", names[rng.Intn(len(names))], rng.Uint64()))
		default:
			var sb strings.Builder
			sb.WriteString("MINSERT " + names[rng.Intn(len(names))])
			for k := 1 + rng.Intn(100); k > 0; k-- {
				if rng.Intn(10) == 0 {
					fmt.Fprintf(&sb, " flow-%d", rng.Intn(1000))
				} else {
					fmt.Fprintf(&sb, " %d", rng.Uint64()>>uint(rng.Intn(60)))
				}
			}
			lines = append(lines, sb.String())
		}
	}
	return lines
}

// burstRecords renders a script as the records a primary would ship:
// text CREATE/DROP lines and insert records.
func burstRecords(t *testing.T, lines []string) []repl.Record {
	t.Helper()
	var recs []repl.Record
	for _, l := range lines {
		cmd, err := ParseCommand(l)
		if err != nil {
			t.Fatal(err)
		}
		rec := []byte(l)
		if cmd.Name == "SKETCH.INSERT" || cmd.Name == "MINSERT" {
			keys := make([]uint64, len(cmd.Args)-1)
			for i, tok := range cmd.Args[1:] {
				keys[i] = ParseKey(tok)
			}
			rec = AppendInsertRecord(nil, []byte(cmd.Args[0]), keys)
		}
		recs = append(recs, repl.Record{Payload: rec})
	}
	return recs
}

// TestBurstBoundariesLeaveNoTrace: the same records applied one per
// burst, in random bursts and as one maximal burst leave followers with
// identical sketches — equal to a server that executed the script as
// commands — and identical logs: each, killed, replays to those same
// sketches. No text insert line reaches a follower's log.
func TestBurstBoundariesLeaveNoTrace(t *testing.T) {
	lines := scriptLines(2, 800)
	recs := burstRecords(t, lines)

	ref := startServer(t, Config{})
	if _, err := sendScript(ref, lines, randomFlush(2)); err != nil {
		t.Fatal(err)
	}
	want := registryImage(t, ref)

	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name  string
		chk   int64
		burst func(left int) int
	}{
		{"one record per burst", 2048, func(int) int { return 1 }},
		{"random bursts", 2048, func(left int) int { return 1 + rng.Intn(min(left, 40)) }},
		{"one maximal burst", 64 << 20, func(left int) int { return left }},
	} {
		dir := t.TempDir()
		s := startWAL(t, dir, nil, tc.chk)
		tgt := &replTarget{s: s}
		for rest := recs; len(rest) > 0; {
			n := tc.burst(len(rest))
			if err := tgt.ApplyBurst(rest[:n]); err != nil {
				t.Fatalf("%s: ApplyBurst: %v", tc.name, err)
			}
			rest = rest[n:]
		}
		sameImage(t, tc.name, registryImage(t, s), want)
		if got := s.ctr.ReplApplied.Value(); got != int64(len(recs)) {
			t.Fatalf("%s: repl_applied_records = %d, want %d", tc.name, got, len(recs))
		}
		s.Abort()

		if tc.chk > 1<<20 { // never checkpointed: the whole stream is in the log
			l, rec, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Records) != len(recs) {
				t.Fatalf("%s: %d records in the log, want %d", tc.name, len(rec.Records), len(recs))
			}
			for _, r := range rec.Records {
				if !isInsertRecord(r) && !strings.HasPrefix(string(r), "SKETCH.CREATE ") && !strings.HasPrefix(string(r), "SKETCH.DROP ") {
					t.Fatalf("%s: follower logged %.40q", tc.name, r)
				}
			}
			l.Close()
		}
		again := startWAL(t, dir, nil, 0)
		sameImage(t, tc.name+", replayed", registryImage(t, again), want)
		again.Abort()
	}
}

// getSketch returns a registered sketch.
func getSketch(t *testing.T, s *Server, name string) *Sketch {
	t.Helper()
	sk, err := s.reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestBurstApplyErrorMidBurst: a record that cannot apply fails the
// burst where it stands. The records ahead of it are applied and logged
// as a pair, as ever; the ones behind it are not touched; none counts as
// applied, and the follower above turns the error into a full resync.
func TestBurstApplyErrorMidBurst(t *testing.T) {
	dir := t.TempDir()
	s := startWAL(t, dir, nil, 0)
	tgt := &replTarget{s: s}
	if err := tgt.ApplyBurst([]repl.Record{{Payload: []byte("SKETCH.CREATE b bloom bits=8192 window=2048 shards=2")}}); err != nil {
		t.Fatal(err)
	}
	applied, logged := s.ctr.ReplApplied.Value(), s.ctr.WALRecords.Value()
	err := tgt.ApplyBurst([]repl.Record{
		{Payload: AppendInsertRecord(nil, []byte("b"), []uint64{1, 2, 3})},
		{Payload: AppendInsertRecord(nil, []byte("nosuch"), []uint64{4})},
		{Payload: AppendInsertRecord(nil, []byte("b"), []uint64{5, 6})},
	})
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("ApplyBurst = %v, want the unknown sketch reported", err)
	}
	if got := getSketch(t, s, "b").Inserts(); got != 3 {
		t.Fatalf("%d keys applied, want the 3 ahead of the failing record", got)
	}
	if got := s.ctr.WALRecords.Value() - logged; got != 1 {
		t.Fatalf("%d records logged, want the one that was applied", got)
	}
	if got := s.ctr.ReplApplied.Value(); got != applied {
		t.Fatalf("repl_applied_records moved by %d on a failed burst", got-applied)
	}
	// The pair survives a crash: replay matches what is in memory.
	if err := s.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	want := registryImage(t, s)
	s.Abort()
	again := startWAL(t, dir, nil, 0)
	sameImage(t, "replay after the failed burst", registryImage(t, again), want)
}

// followerCrashScript applies a CREATE, then bursts of three insert
// records, to a follower until one fails; what ApplyBurst reported
// durable is what a follower would have acknowledged.
func followerCrashScript(t *testing.T, fsys failfs.FS, dir string) (created bool, acked []uint64) {
	s := New(Config{Listen: "127.0.0.1:0", WALDir: dir, CheckpointBytes: 512, FS: fsys})
	if err := s.Start(); err != nil {
		return false, nil // crashed during start-up
	}
	defer s.Abort()
	tgt := &replTarget{s: s}
	if tgt.ApplyBurst([]repl.Record{{Payload: []byte("SKETCH.CREATE flows cm counters=512 window=65536 shards=1")}}) != nil {
		return false, nil
	}
	for burst := 0; burst < 8; burst++ {
		var recs []repl.Record
		var keys []uint64
		for r := 0; r < 3; r++ {
			ks := []uint64{uint64(1000 + burst*100 + r*10), uint64(1001 + burst*100 + r*10)}
			recs = append(recs, repl.Record{Payload: AppendInsertRecord(nil, []byte("flows"), ks)})
			keys = append(keys, ks...)
		}
		if tgt.ApplyBurst(recs) != nil {
			return true, acked
		}
		acked = append(acked, keys...)
	}
	return true, acked
}

// TestFollowerBurstCrashAtEveryFSOperation runs the crash sweep over a
// follower applying bursts: recovered, it holds every record below the
// last position it acknowledged, plus at most the one burst of 6 keys
// that was in flight.
func TestFollowerBurstCrashAtEveryFSOperation(t *testing.T) {
	crashSweep(t, followerCrashScript, 48, 6)
}

// TestRecordLargerThanReadBudgetShips: one insert record bigger than
// the primary's per-read budget and the follower's socket buffer —
// a whole sketch's keys of a large batch — is shipped, applied and
// acknowledged like any other.
func TestRecordLargerThanReadBudgetShips(t *testing.T) {
	primary := startWAL(t, t.TempDir(), nil, 0)
	c := dial(t, primary.Addr().String())
	c.must("SKETCH.CREATE flows bloom bits=1048576 window=262144 shards=4", "+OK")
	follower := startFollower(t, t.TempDir(), primary, 0)
	eventually(t, "full sync", func() bool { return caughtUp(primary, follower) })

	keys := testKeys(11, replReadBudget/8+5000)
	rec := AppendInsertRecord(nil, []byte("flows"), keys)
	if len(rec) <= replReadBudget {
		t.Fatalf("record of %d bytes does not exceed the %d-byte budget", len(rec), replReadBudget)
	}
	c.must("MINSERT flows 1 2 3", ":3") // a small record ahead of it
	var buf insertBuf
	_, err := primary.mutate(nil, new([]wal.Cursor), func() ([][]byte, error) {
		getSketch(t, primary, "flows").InsertBatch(keys, &buf.sc)
		return [][]byte{rec}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c.must("MINSERT flows 4 5 6", ":3") // and one behind; its commit syncs all three
	eventually(t, "follower at the primary's tip", func() bool { return caughtUp(primary, follower) })
	sameImage(t, "follower after the large record", registryImage(t, follower), registryImage(t, primary))
	if got := getSketch(t, follower, "flows").Inserts(); got != uint64(len(keys))+6 {
		t.Fatalf("follower holds %d inserts, want %d", got, len(keys)+6)
	}
}
