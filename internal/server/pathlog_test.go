package server

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// loggedRun is what one run of a script left behind: the replies, the
// payloads of the records it logged, the primary's sketches recovered
// from that log after Abort, the follower's sketches, and how many
// batch applies the fast path made.
type loggedRun struct {
	replies   []string
	records   [][]byte
	recovered map[string][]byte
	follower  map[string][]byte
	batches   int64
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

// runLogged runs lines one at a time, each reply read before the next
// line is sent, on a WAL-backed primary with a follower attached; with
// traceSample 1 every line is traced, which takes it down the slow path.
func runLogged(t *testing.T, lines []string, traceSample int) loggedRun {
	t.Helper()
	dir := t.TempDir()
	s := New(Config{Listen: "127.0.0.1:0", WALDir: dir, TraceSample: traceSample})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	follower := startFollower(t, t.TempDir(), s, 0)
	defer follower.Abort()
	eventually(t, "full sync", func() bool { return caughtUp(s, follower) })
	from := s.wal.Position()

	var run loggedRun
	c := dialServer(t, s)
	for _, line := range lines {
		reply, ok := c.try(line)
		if !ok || strings.HasPrefix(reply, "-") {
			t.Fatalf("%.60s = %q (ok=%v)", line, reply, ok)
		}
		run.replies = append(run.replies, reply)
	}
	eventually(t, "follower at the primary's tip", func() bool { return caughtUp(s, follower) })
	run.follower = registryImage(t, follower)
	run.batches = s.ctr.BatchApplies.Value()

	for tip := s.wal.Position(); from != tip; {
		recs, next, err := s.wal.ReadFrom(from, 0, nil)
		if err != nil {
			t.Fatalf("ReadFrom %s: %v", from, err)
		}
		for _, r := range recs {
			run.records = append(run.records, bytes.Clone(r.Payload))
		}
		from = next
	}
	s.Abort()

	s2 := startWAL(t, dir, nil, 0)
	defer s2.Abort()
	run.recovered = registryImage(t, s2)
	return run
}

// TestLogPathIndependent: the log does not depend on the path a command
// took. One script runs twice over a WAL, once on the fast path and once
// with every line traced, which forces each one onto the slow path. The
// two runs must answer alike and log byte-equal records, recover to
// byte-equal sketches after Abort, and leave byte-equal sketches on an
// attached follower.
//
// Lines are sent one at a time, because a pipelined run of inserts is
// one fast-path batch and so one insert record a sketch, while traced
// lines are applied, and logged, one by one.
func TestLogPathIndependent(t *testing.T) {
	lines := pathScript()
	fast := runLogged(t, lines, 0)
	slow := runLogged(t, lines, 1)
	if fast.batches == 0 || slow.batches != 0 {
		t.Fatalf("batch applies: fast run %d, traced run %d; want > 0 and 0", fast.batches, slow.batches)
	}
	for i := range lines {
		if fast.replies[i] != slow.replies[i] {
			t.Fatalf("%.60s: fast path %q, slow path %q", lines[i], fast.replies[i], slow.replies[i])
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
	sameImage(t, "recovered after Abort", slow.recovered, fast.recovered)
	sameImage(t, "follower", slow.follower, fast.follower)
	sameImage(t, "follower against the recovered primary", fast.follower, fast.recovered)
}
