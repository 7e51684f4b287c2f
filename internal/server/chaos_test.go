package server

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"she/internal/failnet"
)

// Jepsen-lite: replication and the wire protocol under a hostile
// network. internal/failnet injects partitions, torn writes and
// connection resets through the Config.ReplDial / Config.WrapConn
// seams; the assertions are always the same two — zero acked-insert
// loss and bounded audit error — no matter what the network did.

// chaosPartitionSecs is the partition duration: 2s locally so the
// suite stays fast, cranked up via SHE_CHAOS_PARTITION_SECS=10 in the
// CI chaos job.
func chaosPartitionSecs() time.Duration {
	if v := os.Getenv("SHE_CHAOS_PARTITION_SECS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 2 * time.Second
}

// replicaCaughtUp reports whether the primary behind c sees exactly
// one attached replica that has acknowledged the entire durable log.
// Acks are sent after apply+fsync, so lag_records=0 means every
// record is applied on the replica — unlike a probe query on a cm
// sketch, which a hash collision can answer :1 for a key that has not
// replicated yet.
func replicaCaughtUp(c *client) bool {
	role := c.array("ROLE")
	if !strings.Contains(role[0], "replicas=1") {
		return false
	}
	for _, line := range role[1:] {
		if strings.Contains(line, "lag_records=0") {
			return true
		}
	}
	return false
}

// auditARE extracts the are= line from SKETCH.AUDIT.
func auditARE(t *testing.T, c *client, name string) float64 {
	t.Helper()
	audit := c.array("SKETCH.AUDIT %s", name)
	for _, line := range audit {
		if strings.HasPrefix(line, "are=") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "are="), 64)
			if err != nil {
				t.Fatalf("bad are line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no are= line in SKETCH.AUDIT %s:\n%s", name, strings.Join(audit, "\n"))
	return 0
}

// TestChaosPartitionHealCatchup: the primary keeps acknowledging
// writes while the replication link is partitioned (replication is
// asynchronous), and after the partition heals the follower catches
// up to every one of them — zero acked-insert loss, audit ARE within
// budget. The partition blocks both directions of the follower's
// link; bytes in flight survive in kernel buffers, and the follower's
// own timeout/reconnect logic is free to fire mid-partition (its
// redials go through the same partitioned network).
func TestChaosPartitionHealCatchup(t *testing.T) {
	nw := failnet.New(1)
	nw.SetLatency(200 * time.Microsecond)

	// Tracing on: sampled traces must survive partitions — ship-table
	// entries for records stuck behind the partition, follower joins
	// after the heal — without leaking goroutines or wedging the stream.
	primary := startServer(t, Config{WALDir: t.TempDir(), TraceSample: 16})
	pc := dial(t, primary.Addr().String())
	// Presence is verified on the bloom sketch (SHE-BF never
	// false-negatives for an in-window key — a hard suite property);
	// SHE-CM can lose a rare in-window key to the paper's documented
	// time-mark aliasing (§5.1), so the cm sketch is only the accuracy-
	// audit subject here, not the loss detector.
	pc.cmd("SKETCH.CREATE flows bloom bits=4194304 window=1048576 shards=4")
	pc.cmd("SKETCH.CREATE freq cm counters=262144 window=1048576 shards=4")

	follower := startServer(t, Config{
		WALDir:               t.TempDir(),
		ReplicaOf:            primary.Addr().String(),
		ReplDial:             nw.DialTimeout,
		ReplRetryInterval:    20 * time.Millisecond,
		ReplMaxRetryInterval: 100 * time.Millisecond,
		AuditSample:          1,
		TraceSample:          16,
	})
	fc := dial(t, follower.Addr().String())

	keys := 0
	insert := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := pc.cmd("SKETCH.INSERT flows chaos-key-%d", keys); got != ":1" {
				t.Fatalf("INSERT chaos-key-%d = %q", keys, got)
			}
			if got := pc.cmd("SKETCH.INSERT freq chaos-key-%d", keys); got != ":1" {
				t.Fatalf("INSERT freq chaos-key-%d = %q", keys, got)
			}
			keys++
		}
	}
	insert(100)
	eventually(t, "pre-partition sync", func() bool {
		return queryInt(fc, "SKETCH.QUERY flows chaos-key-99") >= 1
	})

	// Partition the link and keep writing for the whole window; the
	// primary acks every insert.
	nw.Partition()
	deadline := time.Now().Add(chaosPartitionSecs())
	for time.Now().Before(deadline) && keys < 5000 {
		insert(10)
		time.Sleep(2 * time.Millisecond)
	}
	// The key cap can end the write loop early; the partition still
	// holds for its full window so reconnect/timeout paths get their
	// chance to fire.
	if rest := time.Until(deadline); rest > 0 {
		time.Sleep(rest)
	}
	nw.Heal()

	eventually(t, "catch-up after heal", func() bool { return replicaCaughtUp(pc) })
	// Zero acked-insert loss: bloom never false-negatives within the
	// window, so every acked key must answer :1 on the follower.
	for i := 0; i < keys; i++ {
		if v := queryInt(fc, "SKETCH.QUERY flows chaos-key-%d", i); v != 1 {
			t.Fatalf("acked insert chaos-key-%d lost across the partition", i)
		}
	}
	if are := auditARE(t, fc, "freq"); are > 0.05 {
		t.Fatalf("post-partition audit ARE %g exceeds budget 0.05", are)
	}
}

// TestChaosResetEveryHandshakeStep drives a connection reset through
// every network operation of the follower's attach sequence — dial,
// PING, REPLCONF, PSYNC, snapshot transfer, first records — the way
// failfs's crash-at-every-op drives a crash through every disk write.
// A torn write at the armed step leaves a seeded-random prefix on the
// wire, so mis-framing bugs surface as parse errors. Whatever step
// dies, the follower's retry loop must converge to a full replica.
func TestChaosResetEveryHandshakeStep(t *testing.T) {
	primary := startServer(t, Config{WALDir: t.TempDir()})
	pc := dial(t, primary.Addr().String())
	pc.cmd("SKETCH.CREATE flows bloom bits=1048576 window=65536 shards=4")
	for i := 0; i < 20; i++ {
		pc.cmd("SKETCH.INSERT flows seed-%d", i)
	}

	bootFollower := func(nw *failnet.Network) (*client, func()) {
		t.Helper()
		f := startServer(t, Config{
			WALDir:               t.TempDir(),
			ReplicaOf:            primary.Addr().String(),
			ReplDial:             nw.DialTimeout,
			ReplRetryInterval:    10 * time.Millisecond,
			ReplMaxRetryInterval: 50 * time.Millisecond,
		})
		return dial(t, f.Addr().String()), f.Abort
	}

	// Clean run: count how many network operations one attach-and-sync
	// takes; that is the step range the fault sweep must cover.
	probe := failnet.New(99)
	fc0, stop0 := bootFollower(probe)
	eventually(t, "clean baseline sync", func() bool {
		return queryInt(fc0, "SKETCH.QUERY flows seed-19") >= 1
	})
	steps := probe.Steps()
	stop0()
	if steps < 5 {
		t.Fatalf("suspiciously few network steps in a clean sync: %d", steps)
	}

	maxN := steps
	if maxN > 40 {
		maxN = 40
	}
	if testing.Short() && maxN > 10 {
		maxN = 10
	}
	for n := int64(1); n <= maxN; n++ {
		nw := failnet.New(1000 + n)
		nw.ResetAt(n)
		fc, stop := bootFollower(nw)
		eventually(t, fmt.Sprintf("recovery from reset at network op %d/%d", n, maxN), func() bool {
			return queryInt(fc, "SKETCH.QUERY flows seed-19") >= 1
		})
		// The sweep only proves something if the fault actually fired;
		// on an established channel the op counter keeps moving
		// (heartbeats, acks), so an armed step is always reached.
		eventually(t, fmt.Sprintf("reset %d fired", n), func() bool {
			return nw.Resets() >= 1
		})
		stop()
	}
}

// TestChaosKillPromoteChain: repeated kill-9-and-promote down a
// replication chain under injected link latency. A is killed and its
// semi-sync replica B promoted; B takes a second round of writes with
// its own replica C attached; then B is killed and C promoted. Every
// key acked in either round must answer on C, and C's online audit
// must agree the answers are accurate.
func TestChaosKillPromoteChain(t *testing.T) {
	nw := failnet.New(7)
	nw.SetLatency(500 * time.Microsecond)

	a := startServer(t, Config{
		WALDir:       t.TempDir(),
		SyncReplicas: 1,
	})

	b := startServer(t, Config{
		WALDir:               t.TempDir(),
		ReplicaOf:            a.Addr().String(),
		ReplDial:             nw.DialTimeout,
		ReplRetryInterval:    20 * time.Millisecond,
		ReplMaxRetryInterval: 100 * time.Millisecond,
		AuditSample:          1,
	})
	bc := dial(t, b.Addr().String())
	eventually(t, "B attached to A", func() bool {
		return strings.Contains(strings.Join(bc.array("ROLE"), "\n"), "connected=true")
	})

	// Round 1 on A: semi-synchronous, so every ack proves B applied and
	// fsynced the record before the client saw :1.
	ac := dial(t, a.Addr().String())
	if got := ac.cmd("SKETCH.CREATE flows bloom bits=1048576 window=1048576 shards=4"); got != "+OK" {
		t.Fatalf("CREATE on A = %q", got)
	}
	if got := ac.cmd("SKETCH.CREATE freq cm counters=65536 window=1048576 shards=4"); got != "+OK" {
		t.Fatalf("CREATE freq on A = %q", got)
	}
	const round1, round2 = 150, 150
	for i := 0; i < round1; i++ {
		if got := ac.cmd("SKETCH.INSERT flows chain-key-%d", i); got != ":1" {
			t.Fatalf("round-1 INSERT %d = %q", i, got)
		}
		if got := ac.cmd("SKETCH.INSERT freq chain-key-%d", i); got != ":1" {
			t.Fatalf("round-1 INSERT freq %d = %q", i, got)
		}
	}

	// Kill A, promote B.
	a.Abort()
	if got := bc.cmd("REPLICAOF NO ONE"); got != "+OK" {
		t.Fatalf("B promotion = %q", got)
	}

	// C attaches to the new primary and full-syncs round 1.
	c := startServer(t, Config{
		WALDir:               t.TempDir(),
		ReplicaOf:            b.Addr().String(),
		ReplDial:             nw.DialTimeout,
		ReplRetryInterval:    20 * time.Millisecond,
		ReplMaxRetryInterval: 100 * time.Millisecond,
		AuditSample:          1,
	})
	cc := dial(t, c.Addr().String())
	eventually(t, "C full-synced round 1 from B", func() bool {
		return queryInt(cc, "SKETCH.QUERY flows chain-key-0") >= 1
	})

	// Round 2 on B, streamed live to C.
	for i := round1; i < round1+round2; i++ {
		if got := bc.cmd("SKETCH.INSERT flows chain-key-%d", i); got != ":1" {
			t.Fatalf("round-2 INSERT %d = %q", i, got)
		}
		if got := bc.cmd("SKETCH.INSERT freq chain-key-%d", i); got != ":1" {
			t.Fatalf("round-2 INSERT freq %d = %q", i, got)
		}
	}
	eventually(t, "C caught up on round 2", func() bool { return replicaCaughtUp(bc) })

	// Kill B, promote C.
	b.Abort()
	if got := cc.cmd("REPLICAOF NO ONE"); got != "+OK" {
		t.Fatalf("C promotion = %q", got)
	}
	if role := cc.array("ROLE"); !strings.HasPrefix(role[0], "role=primary") {
		t.Fatalf("C ROLE after promotion = %v", role)
	}

	// Both rounds survive two hops and two crashes (bloom: no false
	// negatives in-window, so :1 is a guarantee, not an estimate).
	for i := 0; i < round1+round2; i++ {
		if v := queryInt(cc, "SKETCH.QUERY flows chain-key-%d", i); v != 1 {
			t.Fatalf("chain-key-%d lost across the kill/promote chain", i)
		}
	}
	if got := cc.cmd("SKETCH.INSERT flows post-chain"); got != ":1" {
		t.Fatalf("INSERT on twice-promoted C = %q", got)
	}
	if are := auditARE(t, cc, "freq"); are > 0.05 {
		t.Fatalf("post-chain audit ARE %g exceeds budget 0.05", are)
	}
}

// TestChaosTornClientReplies sweeps a torn-write/reset fault across
// the client protocol path: every accepted connection is wrapped in
// failnet, and the armed step kills either a request read or a reply
// flush — the latter leaving a random prefix of the reply batch on
// the wire. Complete reply lines must never be mis-framed (every one
// matches the expected sequence), a torn tail must be a strict prefix
// of the next expected reply, and the server must come out of the
// whole sweep healthy with no leaked connection goroutines. Run under
// -race this is also the write-path concurrency check.
func TestChaosTornClientReplies(t *testing.T) {
	nw := failnet.New(11)
	s := startServer(t, Config{WrapConn: nw.WrapConn, WriteTimeout: 2 * time.Second})
	c0 := dial(t, s.Addr().String())
	if got := c0.cmd("SKETCH.CREATE t bloom bits=65536 window=4096 shards=1"); got != "+OK" {
		t.Fatalf("CREATE = %q", got)
	}
	runtime.GC()
	base := runtime.NumGoroutine()

	script := []struct{ cmd, want string }{
		{"PING", "+PONG"},
		{"SKETCH.INSERT t a", ":1"},
		{"SKETCH.QUERY t a", ":1"},
		{"SKETCH.QUERY t absent", ":0"},
		{"SLOWLOG LEN", ":0"},
		{"PING", "+PONG"},
	}
	for n := 1; n <= 16; n++ {
		nw.ResetAt(nw.Steps() + int64(n))
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		for _, tc := range script {
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := fmt.Fprintf(conn, "%s\n", tc.cmd); err != nil {
				break // server side already reset
			}
			line, err := r.ReadString('\n')
			if err != nil {
				// The torn tail: whatever partial bytes arrived must be a
				// prefix of the reply that was being written — a tear can
				// truncate a reply but never corrupt its framing.
				if line != "" && !strings.HasPrefix(tc.want+"\n", line) {
					t.Fatalf("reset at +%d: torn fragment %q is not a prefix of %q", n, line, tc.want)
				}
				break
			}
			if got := strings.TrimRight(line, "\n"); got != tc.want {
				t.Fatalf("reset at +%d: %s = %q, want %q (mis-framed reply)", n, tc.cmd, got, tc.want)
			}
		}
		conn.Close()
		nw.ResetAt(0) // disarm in case this iteration finished under the armed step
	}

	// The server survived the sweep: the untouched connection still
	// works, new connections work, and the per-connection goroutines of
	// all the killed connections have exited.
	if got := c0.cmd("PING"); got != "+PONG" {
		t.Fatalf("surviving connection PING = %q", got)
	}
	c1 := dial(t, s.Addr().String())
	if got := c1.cmd("SKETCH.QUERY t a"); got != ":1" {
		t.Fatalf("fresh connection QUERY = %q", got)
	}
	eventually(t, "connection goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+4
	})
}
