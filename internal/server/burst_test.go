package server

// Burst-apply tests: a follower applies what its stream had ready as one
// burst — apply all, log all in one batch, fsync once, acknowledge once.
// They check that the burst boundaries never show in the follower's
// state or its log, against the primary, against a reference fed key by
// key, across follower checkpoints, after an error in the middle of a
// burst, and after a crash at every filesystem operation.

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"she/internal/failfs"
	"she/internal/repl"
	"she/internal/wal"
)

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startFollower starts a replica of primary with its own WAL in dir.
func startFollower(t *testing.T, dir string, primary *Server, chkBytes int64) *Server {
	t.Helper()
	s := New(Config{
		Listen: "127.0.0.1:0", WALDir: dir, CheckpointBytes: chkBytes,
		ReplicaOf: primary.Addr().String(), ReplRetryInterval: 10 * time.Millisecond,
	})
	if err := s.Start(); err != nil {
		t.Fatalf("Start follower: %v", err)
	}
	return s
}

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

// runScript sends lines over one connection in pipelined flushes of
// random length — so the primary's batches, and with them the follower's
// records and bursts, come in every size — and checks no line fails.
func runScript(t *testing.T, s *Server, seed int64, lines []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	if err := sendScript(s, lines, func(left int) int { return min(left, 1+rng.Intn(60)) }); err != nil {
		t.Fatal(err)
	}
}

// sendScript sends lines over one connection, flush(left) of them at a
// time, reading every reply of a flush before the next; it fails on the
// first error reply. Safe to run from several goroutines.
func sendScript(s *Server, lines []string, flush func(left int) int) error {
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	for len(lines) > 0 {
		n := flush(len(lines))
		for _, l := range lines[:n] {
			w.WriteString(l + "\n")
		}
		if err := w.Flush(); err != nil {
			return err
		}
		for _, l := range lines[:n] {
			reply, err := r.ReadString('\n')
			if err != nil || strings.HasPrefix(reply, "-") {
				return fmt.Errorf("%.40s = %q, %v", l, reply, err)
			}
		}
		lines = lines[n:]
	}
	return nil
}

// TestFollowerByteEqualAtEqualCursor: after two writers' random
// MINSERT/INSERT/CREATE/DROP scripts — each on its own names, both
// feeding one shared sketch — a follower that has acknowledged the
// primary's tip holds byte-for-byte the primary's sketches, although
// it checkpointed many times while the bursts came in; and what it
// acknowledged is in its own log: killed and restarted on its own, it
// recovers the same bytes. A second follower that full-syncs while the
// writers run holds the same bytes at the same cursor.
func TestFollowerByteEqualAtEqualCursor(t *testing.T) {
	primary := startWAL(t, t.TempDir(), nil, 0)
	defer primary.Abort()
	fdir := t.TempDir()
	follower := startFollower(t, fdir, primary, 4096)
	eventually(t, "full sync", func() bool { return caughtUp(primary, follower) })
	chk0 := follower.ctr.Checkpoints.Value()

	dialServer(t, primary).must("SKETCH.CREATE shared cm counters=2048 window=2048 shards=2", "+OK")
	errs := make(chan error, 2)
	for wr, prefix := range []string{"s", "t"} {
		var lines []string
		for i, l := range scriptLines(int64(1+wr), 1500) {
			f := strings.SplitN(l, " ", 3)
			f[1] = prefix + f[1][1:]
			lines = append(lines, strings.Join(f, " "))
			if i%4 == 0 {
				lines = append(lines, fmt.Sprintf("MINSERT shared %d %d %d", wr, i, i*i))
			}
		}
		rng := rand.New(rand.NewSource(int64(1 + wr)))
		go func() {
			errs <- sendScript(primary, lines, func(left int) int { return min(left, 1+rng.Intn(60)) })
		}()
	}
	// A second follower full-syncs while both writers run: its snapshot
	// is sealed at the log tip between their apply-and-appends.
	eventually(t, "the writers under way", func() bool { return primary.ctr.WALRecords.Value() > 200 })
	late := startFollower(t, t.TempDir(), primary, 4096)
	defer late.Abort()
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "follower at the primary's tip", func() bool { return caughtUp(primary, follower) })
	want := registryImage(t, primary)
	if len(want) == 0 {
		t.Fatal("script left no sketch to compare")
	}
	sameImage(t, "follower at equal cursor", registryImage(t, follower), want)
	eventually(t, "late follower at the primary's tip", func() bool { return caughtUp(primary, late) })
	sameImage(t, "follower attached mid-script", registryImage(t, late), want)
	if got := follower.ctr.Checkpoints.Value() - chk0; got < 3 {
		t.Fatalf("follower checkpointed %d times during the script; the bursts were meant to straddle several", got)
	}
	if st := follower.currentFollower().Status(); st.FullSyncs != 1 {
		t.Fatalf("follower needed %d full syncs", st.FullSyncs)
	}

	follower.Abort()
	alone := startWAL(t, fdir, nil, 0)
	defer alone.Abort()
	sameImage(t, "follower recovered from its own log", registryImage(t, alone), want)
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

	ref := startServerNoWAL(t)
	defer ref.Abort()
	runScript(t, ref, 2, lines)
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

func startServerNoWAL(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Listen: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s
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
	defer again.Abort()
	sameImage(t, "replay after the failed burst", registryImage(t, again), want)
}

// followerCrashScript applies bursts of three insert records to a
// follower whose filesystem is fsys until one fails, and returns the
// keys of the bursts ApplyBurst reported durable — the ones a follower
// would have acknowledged.
func followerCrashScript(t *testing.T, fsys failfs.FS, dir string) (acked []uint64) {
	t.Helper()
	s := New(Config{Listen: "127.0.0.1:0", WALDir: dir, CheckpointBytes: 512, FS: fsys})
	if err := s.Start(); err != nil {
		return nil // crashed during start-up
	}
	defer s.Abort()
	tgt := &replTarget{s: s}
	if tgt.ApplyBurst([]repl.Record{{Payload: []byte("SKETCH.CREATE flows cm counters=512 window=65536 shards=1")}}) != nil {
		return nil
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
			return acked
		}
		acked = append(acked, keys...)
	}
	return acked
}

// TestFollowerBurstCrashAtEveryFSOperation runs the sweep of
// TestWALCrashAtEveryFSOperation over a follower applying bursts: the
// filesystem dies at every mutating operation in turn — mid batch
// append, mid fsync, mid checkpoint — and the follower recovered from
// the surviving directory holds every record below the last position it
// acknowledged, plus at most the one burst that was in flight.
func TestFollowerBurstCrashAtEveryFSOperation(t *testing.T) {
	probe := failfs.NewFault(failfs.OS{})
	if acked := followerCrashScript(t, probe, t.TempDir()); len(acked) != 48 {
		t.Fatalf("probe run incomplete: %d keys acked", len(acked))
	}
	total := probe.Steps()
	if total < 40 {
		t.Fatalf("suspiciously few fault points: %d", total)
	}
	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		fault := failfs.NewFault(failfs.OS{})
		fault.CrashAt(k)
		acked := followerCrashScript(t, fault, dir)
		if !fault.Crashed() {
			t.Fatalf("crash at step %d never fired", k)
		}
		s := New(Config{Listen: "127.0.0.1:0", WALDir: dir})
		if err := s.Start(); err != nil {
			t.Fatalf("crash at step %d: recovery failed: %v", k, err)
		}
		sk, err := s.Registry().Get("flows")
		if len(acked) > 0 && err != nil {
			t.Fatalf("crash at step %d: sketch of %d acked keys missing: %v", k, len(acked), err)
		}
		for _, key := range acked {
			if v, _ := sk.Query(key); v < 1 {
				t.Fatalf("crash at step %d: acked key %d lost", k, key)
			}
		}
		if sk != nil {
			if n := sk.Inserts(); n < uint64(len(acked)) || n > uint64(len(acked))+6 {
				t.Fatalf("crash at step %d: recovered %d inserts, acked %d (+ at most one burst of 6)", k, n, len(acked))
			}
		}
		s.Abort()
	}
}

// TestRecordLargerThanReadBudgetShips: one insert record bigger than
// the primary's per-read budget and the follower's socket buffer —
// a whole sketch's keys of a large batch — is shipped, applied and
// acknowledged like any other.
func TestRecordLargerThanReadBudgetShips(t *testing.T) {
	primary := startWAL(t, t.TempDir(), nil, 0)
	defer primary.Abort()
	c := dialServer(t, primary)
	c.must("SKETCH.CREATE flows bloom bits=1048576 window=262144 shards=4", "+OK")
	follower := startFollower(t, t.TempDir(), primary, 0)
	defer follower.Abort()
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
