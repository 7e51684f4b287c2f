package server

// Ordering tests: with a WAL the log order is the apply order, so the
// log rebuilds the primary's sketches byte for byte — on a follower and
// on the primary recovered from its own log — however many connections
// write at once, and whatever another connection drops and re-creates
// while a batch is pending.

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// TestConcurrentWritersReplayByteEqual: four connections, each sending
// 200 rounds of 16 pipelined MINSERT×32 into a bloom and a cm whose
// windows wrap many times over, leave the primary byte-equal to its
// follower and to itself recovered from its own log.
func TestConcurrentWritersReplayByteEqual(t *testing.T) {
	const writers, rounds, perRound, perLine = 4, 200, 16, 32
	dir := t.TempDir()
	primary := startWAL(t, dir, nil, 0)
	defer primary.Abort()
	follower := startFollower(t, t.TempDir(), primary, 0)
	defer follower.Abort()
	c := dialServer(t, primary)
	c.must("SKETCH.CREATE b bloom bits=8192 window=2048 shards=2", "+OK")
	c.must("SKETCH.CREATE c cm counters=2048 window=2048 shards=2", "+OK")

	errs := make(chan error, writers)
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
		go func() { errs <- sendScript(primary, lines, func(int) int { return perRound }) }()
	}
	for range writers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "follower at the primary's tip", func() bool { return caughtUp(primary, follower) })
	want := registryImage(t, primary)
	sameImage(t, "follower", registryImage(t, follower), want)
	primary.Abort()

	replayed := startWAL(t, dir, nil, 0)
	defer replayed.Abort()
	sameImage(t, "primary recovered from its own log", registryImage(t, replayed), want)
}

// TestDropRecreateMidBatchReplays: A's MINSERT x is answered and
// buffered; B drops x and creates it again; then A's batch applies. The
// keys go into the x the log names them after — the new one — on the
// primary as on replay.
func TestDropRecreateMidBatchReplays(t *testing.T) {
	dir := t.TempDir()
	s := startWAL(t, dir, nil, 0)
	defer s.Abort()
	const create = "SKETCH.CREATE x bloom bits=65536 window=65536 shards=2"
	b := dialServer(t, s)
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
	defer replayed.Abort()
	sameImage(t, "primary recovered from its own log", registryImage(t, replayed), want)
}
