package server

// Byte-equality tests: with a WAL the log order is the apply order, so
// the log rebuilds the primary's sketches byte for byte — on a follower
// and on the primary recovered from its own log — whichever path a
// command took, however many connections write at once, and whatever
// another connection drops and re-creates while a batch is pending. This
// is what lets sites combine window synopses: they agree on hashing and
// on arrival order. One driver, byteScript.run, checks it for every
// script.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

// sendScript sends lines over one connection, flush(left) of them at a
// time, reading every reply of a flush before the next, and returns the
// replies; it fails on the first error reply. Safe to run from several
// goroutines.
func sendScript(s *Server, lines []string, flush func(left int) int) ([]string, error) {
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	var replies []string
	for len(lines) > 0 {
		n := flush(len(lines))
		for _, l := range lines[:n] {
			w.WriteString(l + "\n")
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		for _, l := range lines[:n] {
			reply, err := r.ReadString('\n')
			if err != nil || strings.HasPrefix(reply, "-") {
				return nil, fmt.Errorf("%.40s = %q, %v", l, reply, err)
			}
			replies = append(replies, strings.TrimSuffix(reply, "\n"))
		}
		lines = lines[n:]
	}
	return replies, nil
}

// randomFlush pipelines flushes of 1 to 60 lines, so the primary's
// batches, and with them a follower's records and bursts, come in every
// size.
func randomFlush(seed int64) func(left int) int {
	rng := rand.New(rand.NewSource(seed))
	return func(left int) int { return min(left, 1+rng.Intn(60)) }
}

// writer is one connection's part of a byteScript.
type writer struct {
	lines []string
	flush func(left int) int
}

// byteScript is one run of the byte-equality driver.
type byteScript struct {
	cfg         Config   // the primary's; the driver adds the WAL
	followerChk int64    // the follower's CheckpointBytes
	setup       []string // sent one line at a time before the writers start
	writers     []writer // sent at once, each over its own connection
	late        bool     // a second follower full-syncs while the writers run
}

// byteRun is what a byteScript left: its two nodes, killed, for their
// counters; the primary's sketches; the replies to setup; the records the
// primary logged once the follower had attached; and how many times the
// follower had checkpointed when its full sync was done.
type byteRun struct {
	primary, follower *Server
	image             map[string][]byte
	replies           []string
	records           [][]byte
	synced            int64
}

// run starts a WAL primary on b.cfg with a follower attached and sends
// the script. Once the follower has acknowledged the primary's tip, the
// follower (and the late one), the primary recovered from its own log
// and the follower recovered from its own must hold the primary's
// sketches byte for byte. The primary must not checkpoint during the
// run, so that its records can be read back.
func (b byteScript) run(t *testing.T) byteRun {
	t.Helper()
	pdir, fdir := t.TempDir(), t.TempDir()
	b.cfg.WALDir = pdir
	primary := startServer(t, b.cfg)
	follower := startFollower(t, fdir, primary, b.followerChk)
	eventually(t, "full sync", func() bool { return caughtUp(primary, follower) })
	run := byteRun{primary: primary, follower: follower, synced: follower.ctr.Checkpoints.Value()}
	from := primary.wal.Position()

	var err error
	if run.replies, err = sendScript(primary, b.setup, func(int) int { return 1 }); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, len(b.writers))
	for _, w := range b.writers {
		go func() {
			_, err := sendScript(primary, w.lines, w.flush)
			errs <- err
		}()
	}
	var late *Server
	if b.late {
		// Its snapshot is sealed at the log tip between the writers'
		// apply-and-appends.
		eventually(t, "the writers under way", func() bool { return primary.ctr.WALRecords.Value() > 200 })
		late = startFollower(t, t.TempDir(), primary, b.followerChk)
	}
	for range b.writers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	eventually(t, "follower at the primary's tip", func() bool { return caughtUp(primary, follower) })
	run.image = registryImage(t, primary)
	if len(run.image) == 0 {
		t.Fatal("the script left no sketch to compare")
	}
	sameImage(t, "follower at equal cursor", registryImage(t, follower), run.image)
	if late != nil {
		eventually(t, "late follower at the primary's tip", func() bool { return caughtUp(primary, late) })
		sameImage(t, "follower attached mid-script", registryImage(t, late), run.image)
	}
	for tip := primary.wal.Position(); from != tip; {
		recs, next, err := primary.wal.ReadFrom(from, 0, nil)
		if err != nil {
			t.Fatalf("ReadFrom %s: %v", from, err)
		}
		for _, r := range recs {
			run.records = append(run.records, bytes.Clone(r.Payload))
		}
		from = next
	}

	primary.Abort()
	follower.Abort()
	sameImage(t, "primary recovered from its own log", registryImage(t, startWAL(t, pdir, nil, 0)), run.image)
	sameImage(t, "follower recovered from its own log", registryImage(t, startWAL(t, fdir, nil, 0)), run.image)
	return run
}

// pathScript covers every logged client mutation: SKETCH.CREATE of each
// kind, the same keys through MINSERT and SKETCH.INSERT — decimal
// tokens, tokens ParseKey hashes, the scanner's edge tokens and a full
// line of MaxArgs-2 keys — SKETCH.DROP and a CREATE that reuses a
// dropped name, then a random script of the same verbs.
func pathScript() []string {
	lines := []string{
		"SKETCH.CREATE b bloom bits=8192 window=2048 shards=2",
		"SKETCH.CREATE c cm counters=2048 window=2048 shards=2",
		"SKETCH.CREATE h hll registers=256 window=2048 shards=2",
	}
	var toks []string
	for _, tok := range scanEdgeTokens {
		if !strings.ContainsFunc(tok, func(r rune) bool { return r <= ' ' || r == 0x7f }) {
			toks = append(toks, tok)
		}
	}
	toks = append(toks, "alice", "bob", "flow-17", "42")
	for _, name := range []string{"b", "c", "h"} {
		for _, verb := range []string{"MINSERT", "SKETCH.INSERT"} {
			lines = append(lines, verb+" "+name+" "+strings.Join(toks, " "))
			for _, tok := range toks[:8] {
				lines = append(lines, verb+" "+name+" "+tok)
			}
		}
	}
	var full strings.Builder
	full.WriteString("MINSERT c")
	for i := 0; i < MaxArgs-2; i++ {
		fmt.Fprintf(&full, " %d", uint64(i)<<40|uint64(i))
	}
	lines = append(lines, full.String(), strings.Replace(full.String(), "MINSERT", "SKETCH.INSERT", 1),
		"SKETCH.DROP h",
		"SKETCH.CREATE h cm counters=1024 window=1024 shards=1",
		"MINSERT h "+strings.Join(toks, " "),
		"SKETCH.DROP b")
	return append(lines, scriptLines(43, 300)...)
}

// TestLogPathIndependent: the log does not depend on the path a command
// took. One script runs twice, once on the fast path and once with every
// line traced, which forces each one onto the slow path. The two runs
// must answer alike, log byte-equal records and hold byte-equal
// sketches.
//
// Lines are sent one at a time, because a pipelined run of inserts is
// one fast-path batch and so one insert record a sketch, while traced
// lines are applied, and logged, one by one.
func TestLogPathIndependent(t *testing.T) {
	fast := byteScript{setup: pathScript()}.run(t)
	slow := byteScript{cfg: Config{TraceSample: 1}, setup: pathScript()}.run(t)
	if f, s := fast.primary.ctr.BatchApplies.Value(), slow.primary.ctr.BatchApplies.Value(); f == 0 || s != 0 {
		t.Fatalf("batch applies: fast run %d, traced run %d; want > 0 and 0", f, s)
	}
	for i, line := range pathScript() {
		if fast.replies[i] != slow.replies[i] {
			t.Fatalf("%.60s: fast path %q, slow path %q", line, fast.replies[i], slow.replies[i])
		}
	}
	if len(fast.records) != len(slow.records) {
		t.Fatalf("fast path logged %d records, slow path %d", len(fast.records), len(slow.records))
	}
	for i := range fast.records {
		if !bytes.Equal(fast.records[i], slow.records[i]) {
			t.Fatalf("record %d differs:\nfast %.80q\nslow %.80q", i, fast.records[i], slow.records[i])
		}
	}
	sameImage(t, "slow path against fast path", slow.image, fast.image)
}

// TestConcurrentWritersReplayByteEqual: four connections, each sending
// 200 rounds of 16 pipelined MINSERT×32 into a bloom and a cm whose
// windows wrap many times over.
func TestConcurrentWritersReplayByteEqual(t *testing.T) {
	const writers, rounds, perRound, perLine = 4, 200, 16, 32
	b := byteScript{setup: []string{
		"SKETCH.CREATE b bloom bits=8192 window=2048 shards=2",
		"SKETCH.CREATE c cm counters=2048 window=2048 shards=2",
	}}
	for wr := range writers {
		rng := rand.New(rand.NewSource(int64(wr)))
		lines := make([]string, 0, rounds*perRound)
		for i := range rounds * perRound {
			var sb strings.Builder
			sb.WriteString([]string{"MINSERT b", "MINSERT c"}[i%2])
			for range perLine {
				fmt.Fprintf(&sb, " %d", rng.Intn(1<<14))
			}
			lines = append(lines, sb.String())
		}
		b.writers = append(b.writers, writer{lines, func(int) int { return perRound }})
	}
	b.run(t)
}

// TestFollowerByteEqualAtEqualCursor: two writers' random
// MINSERT/INSERT/CREATE/DROP scripts — each on its own names, both
// feeding one shared sketch — while the follower checkpoints many times
// as the bursts come in, and a second follower full-syncs mid-script.
func TestFollowerByteEqualAtEqualCursor(t *testing.T) {
	b := byteScript{followerChk: 4096, late: true,
		setup: []string{"SKETCH.CREATE shared cm counters=2048 window=2048 shards=2"}}
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
		b.writers = append(b.writers, writer{lines, randomFlush(int64(1 + wr))})
	}
	run := b.run(t)
	if got := run.follower.ctr.Checkpoints.Value() - run.synced; got < 3 {
		t.Fatalf("follower checkpointed %d times during the script; the bursts were meant to straddle several", got)
	}
	if st := run.follower.currentFollower().Status(); st.FullSyncs != 1 {
		t.Fatalf("follower needed %d full syncs", st.FullSyncs)
	}
}

// TestDropRecreateMidBatchReplays: A's MINSERT x is answered and
// buffered; B drops x and creates it again; then A's batch applies. The
// keys go into the x the log names them after — the new one — on the
// primary as on replay.
func TestDropRecreateMidBatchReplays(t *testing.T) {
	dir := t.TempDir()
	s := startWAL(t, dir, nil, 0)
	const create = "SKETCH.CREATE x bloom bits=65536 window=65536 shards=2"
	b := dial(t, s.Addr().String())
	b.must(create, "+OK")

	a := &connBatch{s: s, bw: &syncWriter{s: s}}
	w := bufio.NewWriter(io.Discard)
	if handled, _, err := a.tryFast([]byte("MINSERT x 1 2 3 4 5 6 7 8"), w); !handled || err != nil {
		t.Fatalf("tryFast = %v, %v, want the line buffered", handled, err)
	}
	b.must("SKETCH.DROP x", "+OK")
	b.must(create, "+OK")
	if err := a.apply(); err != nil {
		t.Fatal(err)
	}
	if err := s.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	sk, err := s.reg.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if n := sk.Inserts(); n != 8 {
		t.Fatalf("the new x holds %d inserts, want the batch's 8", n)
	}
	want := registryImage(t, s)
	s.Abort()

	replayed := startWAL(t, dir, nil, 0)
	sameImage(t, "primary recovered from its own log", registryImage(t, replayed), want)
}
