package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// queryInt sends a command expecting an :N reply and returns N, or -1
// for any other reply (missing sketch while a full sync is in flight).
func queryInt(c *client, format string, args ...any) int64 {
	reply := c.cmd(format, args...)
	if !strings.HasPrefix(reply, ":") {
		return -1
	}
	v, err := strconv.ParseInt(reply[1:], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

func splitAddr(t *testing.T, addr string) (host, port string) {
	t.Helper()
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	return host, port
}

// TestReplicationEndToEnd covers the whole follower lifecycle: full
// sync from a snapshot of pre-existing state, live tailing of new
// records, read-only command gating, ROLE on both ends, and the
// she_repl_* metric families.
func TestReplicationEndToEnd(t *testing.T) {
	primary := startServer(t, Config{
		WALDir:      t.TempDir(),
		DebugListen: "127.0.0.1:0",
	})
	pc := dial(t, primary.Addr().String())

	// State created before the follower exists must arrive via the
	// snapshot transfer, not the record stream.
	pc.cmd("SKETCH.CREATE flows cm counters=65536 window=65536 shards=4")
	for i := 0; i < 50; i++ {
		pc.cmd("SKETCH.INSERT flows presync-%d", i)
	}

	follower := startServer(t, Config{
		WALDir:      t.TempDir(),
		DebugListen: "127.0.0.1:0",
		ReplicaOf:   primary.Addr().String(),
	})
	fc := dial(t, follower.Addr().String())
	eventually(t, "full sync", func() bool {
		return queryInt(fc, "SKETCH.QUERY flows presync-49") >= 1
	})

	// State created after the attach arrives via the live tail.
	pc.cmd("SKETCH.INSERT flows streamed-key")
	pc.cmd("SKETCH.CREATE users hll registers=4096 window=65536 shards=4")
	pc.cmd("SKETCH.INSERT users u1 u2 u3")
	eventually(t, "streamed records", func() bool {
		return queryInt(fc, "SKETCH.QUERY flows streamed-key") >= 1
	})
	eventually(t, "streamed CREATE", func() bool {
		return strings.HasPrefix(fc.cmd("SKETCH.CARD users"), "+")
	})

	// The follower serves reads but refuses every mutation.
	if got := fc.cmd("SKETCH.QUERY flows presync-0"); !strings.HasPrefix(got, ":") {
		t.Fatalf("follower QUERY = %q", got)
	}
	stats := fc.array("SKETCH.STATS flows")
	if !strings.Contains(strings.Join(stats, "\n"), "kind=cm") {
		t.Fatalf("follower STATS = %v", stats)
	}
	for _, cmd := range []string{
		"SKETCH.INSERT flows x",
		"SKETCH.CREATE nope bloom",
		"SKETCH.DROP flows",
	} {
		got := fc.cmd(cmd)
		if !strings.HasPrefix(got, "-ERR READONLY") {
			t.Fatalf("%s on follower = %q, want READONLY refusal", cmd, got)
		}
	}

	// ROLE reflects the topology from both sides.
	pRole := pc.array("ROLE")
	if len(pRole) < 2 || pRole[0] != "role=primary replicas=1" {
		t.Fatalf("primary ROLE = %v", pRole)
	}
	fRole := fc.array("ROLE")
	joined := strings.Join(fRole, "\n")
	if fRole[0] != "role=replica" || !strings.Contains(joined, "connected=true") ||
		!strings.Contains(joined, "full_syncs=1") {
		t.Fatalf("follower ROLE = %v", fRole)
	}

	// INFO agrees.
	if info := strings.Join(fc.array("INFO"), "\n"); !strings.Contains(info, "role=replica") {
		t.Fatalf("follower INFO missing role=replica:\n%s", info)
	}

	// Metric families on both ends.
	pm := scrape(t, primary)
	for _, want := range []string{
		"she_repl_is_replica 0",
		"she_repl_connected_replicas 1",
		"she_repl_lag_bytes{replica=",
		"she_repl_lag_records{replica=",
		"she_repl_ack_age_seconds{replica=",
		"she_repl_full_syncs 1",
	} {
		if !strings.Contains(pm, want) {
			t.Errorf("primary /metrics missing %q", want)
		}
	}
	fm := scrape(t, follower)
	for _, want := range []string{
		"she_repl_is_replica 1",
		"she_repl_follower_connected 1",
		"she_repl_follower_full_syncs 1",
		"she_repl_follower_applied_records",
	} {
		if !strings.Contains(fm, want) {
			t.Errorf("follower /metrics missing %q", want)
		}
	}
}

// TestReplicationFailover is the core durability claim: with
// semi-synchronous commits, crash the primary mid-stream, promote the
// follower, and every insert the client was ever acked for is still
// answerable — and the follower's online audit confirms the answers
// are accurate, not just present.
//
// per-command acknowledges one SKETCH.INSERT at a time. In
// across-checkpoints two connections write while the log checkpoints
// under them, and a checkpoint leaves the log's tip at the start of an
// empty segment: a commit must wait for its own records, not for that
// tip, which no replica can acknowledge until someone appends again.
func TestReplicationFailover(t *testing.T) {
	t.Run("per-command", func(t *testing.T) {
		failover(t, Config{}, func(t *testing.T, addr string) []string {
			pc := dial(t, addr)
			keys := make([]string, 200)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d", i)
				if got := pc.cmd("SKETCH.INSERT flows %s", keys[i]); got != ":1" {
					t.Fatalf("INSERT %s = %q", keys[i], got)
				}
			}
			return keys
		})
	})
	t.Run("across-checkpoints", func(t *testing.T) {
		failover(t, Config{CheckpointBytes: 16 << 10}, writeAcrossCheckpoints)
	})
}

// writeAcrossCheckpoints has two connections to the primary at addr,
// one sending MINSERT×64 and one single-key SKETCH.INSERTs, until the
// log has checkpointed three times under them. They take turns, one
// command in flight at a time, so no other writer's append can rescue a
// commit that waits for the wrong cursor. Every reply must acknowledge
// its keys and no semi-synchronous wait may time out; it returns the
// acknowledged keys.
func writeAcrossCheckpoints(t *testing.T, addr string) []string {
	ic, mc, sc := dial(t, addr), dial(t, addr), dial(t, addr)
	base := infoInt(ic, "checkpoints")
	var keys []string
	for i := 0; infoInt(ic, "checkpoints") < base+3; i++ {
		if i == 1000 {
			t.Fatalf("%d checkpoints after %d turns, want 3", infoInt(ic, "checkpoints")-base, i)
		}
		line := "MINSERT flows"
		for j := range 64 {
			line += fmt.Sprintf(" m%d-%d", i, j)
		}
		if got := mc.cmd("%s", line); got != ":64" {
			t.Fatalf("MINSERT #%d = %q", i, got)
		}
		keys = append(keys, strings.Fields(line)[2:]...)
		key := fmt.Sprintf("s%d", i)
		if got := sc.cmd("SKETCH.INSERT flows %s", key); got != ":1" {
			t.Fatalf("SKETCH.INSERT #%d = %q", i, got)
		}
		keys = append(keys, key)
	}
	if n := infoInt(ic, "repl_sync_timeouts"); n != 0 {
		t.Fatalf("repl_sync_timeouts = %d, want 0", n)
	}
	return keys
}

// failover starts a semi-synchronous primary (cfg plus a WAL and
// SyncReplicas 1) and an auditing follower, creates a cm sketch, lets
// write acknowledge keys on the primary, crashes the primary and
// promotes the follower, which must answer every acknowledged key.
func failover(t *testing.T, cfg Config, write func(t *testing.T, addr string) []string) {
	cfg.WALDir, cfg.SyncReplicas = t.TempDir(), 1
	primary := startServer(t, cfg)

	follower := startServer(t, Config{
		WALDir:      t.TempDir(),
		ReplicaOf:   primary.Addr().String(),
		AuditSample: 1, // exact shadow: post-failover answers are checkable
	})
	fc := dial(t, follower.Addr().String())
	eventually(t, "replica attach", func() bool {
		return strings.Contains(strings.Join(fc.array("ROLE"), "\n"), "connected=true")
	})

	// Every one of these commands is acknowledged only after the
	// follower applied and fsynced it (SyncReplicas: 1), so all of
	// them must survive the primary's death.
	pc := dial(t, primary.Addr().String())
	if got := pc.cmd("SKETCH.CREATE flows cm counters=65536 window=1048576 shards=4"); got != "+OK" {
		t.Fatalf("CREATE under semi-sync = %q", got)
	}
	acked := write(t, primary.Addr().String())

	// Crash the primary: no drain, no checkpoint, connections die.
	primary.Abort()

	// Promote the follower; it starts taking writes at its position.
	if got := fc.cmd("REPLICAOF NO ONE"); got != "+OK" {
		t.Fatalf("promotion = %q", got)
	}
	role := fc.array("ROLE")
	if !strings.HasPrefix(role[0], "role=primary") {
		t.Fatalf("post-promotion ROLE = %v", role)
	}

	// Zero acked-write loss: cm never undercounts within the window,
	// so every acked key must answer at least 1.
	for _, key := range acked {
		if v := queryInt(fc, "SKETCH.QUERY flows %s", key); v < 1 {
			t.Fatalf("acked insert %s lost after failover (count %d)", key, v)
		}
	}

	// The promoted node accepts mutations again.
	if got := fc.cmd("SKETCH.INSERT flows post-promotion"); got != ":1" {
		t.Fatalf("INSERT after promotion = %q", got)
	}
	if v := queryInt(fc, "SKETCH.QUERY flows post-promotion"); v < 1 {
		t.Fatalf("post-promotion insert missing (count %d)", v)
	}

	// The audit shadow was built from the replicated stream; its ARE
	// confirms the promoted node's answers match exact truth within
	// the usual sketch error budget.
	audit := strings.Join(fc.array("SKETCH.AUDIT flows"), "\n")
	if !strings.Contains(audit, "enabled=true") {
		t.Fatalf("follower audit not running:\n%s", audit)
	}
	var are float64
	for _, line := range strings.Split(audit, "\n") {
		if strings.HasPrefix(line, "are=") {
			fmt.Sscanf(line, "are=%g", &are)
		}
	}
	if are > 0.05 {
		t.Fatalf("post-failover audit ARE %g exceeds budget 0.05:\n%s", are, audit)
	}
}

// TestReplicationSemiSyncTimeout: with SyncReplicas and no replica
// attached, a mutation must fail rather than be acknowledged with an
// unprovable replication claim.
func TestReplicationSemiSyncTimeout(t *testing.T) {
	primary := startServer(t, Config{
		WALDir:             t.TempDir(),
		SyncReplicas:       1,
		SyncReplicaTimeout: 100 * time.Millisecond,
	})
	pc := dial(t, primary.Addr().String())
	got := pc.cmd("SKETCH.CREATE flows cm counters=4096")
	if !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, "replica") {
		t.Fatalf("semi-sync commit with no replicas = %q, want replica-ack error", got)
	}
}

// TestReplicationSemiSyncRefusesLoad: SKETCH.LOAD writes a checkpoint,
// not a log record, so no replica receives what it loads and no
// acknowledgement could vouch for it. Under semi-sync it is refused by
// name before anything loads, and the connection carries on.
func TestReplicationSemiSyncRefusesLoad(t *testing.T) {
	primary := startServer(t, Config{
		WALDir:       t.TempDir(),
		SnapshotDir:  t.TempDir(),
		SyncReplicas: 1,
	})
	startServer(t, Config{WALDir: t.TempDir(), ReplicaOf: primary.Addr().String()})
	pc := dial(t, primary.Addr().String())
	for _, cmd := range []string{"SKETCH.CREATE flows cm counters=4096", "SKETCH.INSERT flows a", "SKETCH.SAVE flows"} {
		if got := pc.cmd("%s", cmd); strings.HasPrefix(got, "-") {
			t.Fatalf("%s = %q", cmd, got)
		}
	}
	for _, cmd := range []string{"SKETCH.LOAD copy flows", "SKETCH.LOAD flows"} {
		if got := pc.cmd("%s", cmd); !strings.HasPrefix(got, "-ERR SKETCH.LOAD is not replicated") {
			t.Fatalf("%s under semi-sync = %q, want the refusal", cmd, got)
		}
	}
	if list := pc.array("SKETCH.LIST"); len(list) != 1 || !strings.HasPrefix(list[0], "flows ") {
		t.Fatalf("SKETCH.LIST after refused loads = %v, want flows alone", list)
	}
	if got := pc.cmd("SKETCH.INSERT flows b"); got != ":1" {
		t.Fatalf("INSERT after refused loads = %q", got)
	}
	for _, key := range []string{"snapshots_loaded", "repl_sync_timeouts"} {
		if got := infoInt(pc, key); got != 0 {
			t.Errorf("%s = %d, want 0", key, got)
		}
	}
}

// TestReplicationResyncAfterPrimaryRestart: a primary restart
// checkpoints away the log the follower's cursor points into, so the
// follower's reconnect to the reborn primary must fall back to a clean
// full resync and converge again.
func TestReplicationResyncAfterPrimaryRestart(t *testing.T) {
	walDir := t.TempDir()
	primary1 := startServer(t, Config{WALDir: walDir})
	pc := dial(t, primary1.Addr().String())
	pc.cmd("SKETCH.CREATE flows cm counters=65536 window=65536")
	pc.cmd("SKETCH.INSERT flows before-restart")

	follower := startFollower(t, t.TempDir(), primary1, 0)
	fc := dial(t, follower.Addr().String())
	eventually(t, "initial sync", func() bool {
		return queryInt(fc, "SKETCH.QUERY flows before-restart") >= 1
	})

	// Graceful restart on the same WAL and address: the shutdown
	// checkpoint truncates the log, so the cursor the follower reconnects
	// with is gone and it must full-resync.
	if err := primary1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	primary2 := startServer(t, Config{WALDir: walDir, Listen: primary1.Addr().String()})
	dial(t, primary2.Addr().String()).cmd("SKETCH.INSERT flows after-restart")
	eventually(t, "resync from reborn primary", func() bool {
		return queryInt(fc, "SKETCH.QUERY flows after-restart") >= 1 &&
			queryInt(fc, "SKETCH.QUERY flows before-restart") >= 1
	})
	role := strings.Join(fc.array("ROLE"), "\n")
	if !strings.Contains(role, "full_syncs=2") {
		t.Fatalf("follower ROLE after resync = %s", role)
	}
}

// TestPsyncRefusals: PSYNC is refused without a WAL and on a replica
// (no chained replication), with an error, not a hang.
func TestPsyncRefusals(t *testing.T) {
	noWal := startServer(t, Config{})
	c := dial(t, noWal.Addr().String())
	if got := c.cmd("PSYNC ?"); !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, "WAL") {
		t.Fatalf("PSYNC without WAL = %q", got)
	}

	primary := startServer(t, Config{WALDir: t.TempDir()})
	follower := startServer(t, Config{
		WALDir:    t.TempDir(),
		ReplicaOf: primary.Addr().String(),
	})
	fc := dial(t, follower.Addr().String())
	eventually(t, "replica connected", func() bool {
		return strings.Contains(strings.Join(fc.array("ROLE"), "\n"), "connected=true")
	})
	if got := fc.cmd("PSYNC ?"); !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, "chained") {
		t.Fatalf("PSYNC on replica = %q", got)
	}
	// A refused PSYNC closes the connection (the verb hands the whole
	// connection over), so each probe needs a fresh dial.
	fc2 := dial(t, follower.Addr().String())
	if got := fc2.cmd("PSYNC 1 2"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("malformed PSYNC = %q", got)
	}
}

// TestReplconfListeningPort: the port a replica advertises becomes part
// of its ID — in ROLE and in the replica label of she_repl_* — so only a
// decimal port, 0 to 65535, is accepted; 0 is what a follower sends when
// it cannot tell its own.
func TestReplconfListeningPort(t *testing.T) {
	c := dial(t, startServer(t, Config{}).Addr().String())
	for _, port := range []string{`1"2`, "7\xff", "65536", "x"} {
		if got := c.cmd("REPLCONF LISTENING-PORT %s", port); !strings.HasPrefix(got, "-ERR") {
			t.Errorf("REPLCONF LISTENING-PORT %q = %q, want -ERR", port, got)
		}
	}
	for _, port := range []string{"7000", "0"} {
		if got := c.cmd("REPLCONF LISTENING-PORT %s", port); got != "+OK" {
			t.Errorf("REPLCONF LISTENING-PORT %q = %q, want +OK", port, got)
		}
	}
}

// TestSlowReplicaDisconnect: a replica that takes the stream but never
// acknowledges pins WAL segments and stream buffers without bound, so
// past ReplicaMaxLagBytes the primary cuts it loose and counts the
// drop. The "replica" here is a bare protocol client that completes
// the PSYNC handshake, drains everything it is sent, and stays silent.
func TestSlowReplicaDisconnect(t *testing.T) {
	primary := startServer(t, Config{
		WALDir:             t.TempDir(),
		ReplicaMaxLagBytes: 2048,
	})
	pc := dial(t, primary.Addr().String())
	pc.cmd("SKETCH.CREATE flows cm counters=65536 window=65536 shards=4")

	// Handshake exactly as a follower would, then go mute.
	fake := dial(t, primary.Addr().String())
	if got := fake.cmd("PING"); got != "+PONG" {
		t.Fatalf("PING = %q", got)
	}
	if got := fake.cmd("REPLCONF LISTENING-PORT 1"); got != "+OK" {
		t.Fatalf("REPLCONF = %q", got)
	}
	fake.send("PSYNC ?")
	if got := fake.recv(); !strings.HasPrefix(got, "+FULLRESYNC") {
		t.Fatalf("PSYNC = %q", got)
	}
	// Drain snapshot and stream forever without ever sending REPLACK;
	// closed reports the primary hanging up on us.
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		io.Copy(io.Discard, fake.conn)
	}()
	eventually(t, "fake replica attached", func() bool {
		return strings.Contains(strings.Join(pc.array("ROLE"), "\n"), "replicas=1")
	})

	// Push well past the 2 KiB lag limit; every insert is still acked
	// (replication is asynchronous here).
	for i := 0; i < 300; i++ {
		if got := pc.cmd("SKETCH.INSERT flows slow-replica-key-%d", i); got != ":1" {
			t.Fatalf("INSERT %d = %q", i, got)
		}
	}

	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("lagging replica was never disconnected")
	}
	eventually(t, "drop counted and replica deregistered", func() bool {
		info := strings.Join(pc.array("INFO"), "\n")
		return strings.Contains(info, "repl_slow_replica_drops=1") &&
			strings.Contains(info, "connected_replicas=0")
	})
	// The primary itself is unharmed.
	if got := pc.cmd("SKETCH.QUERY flows slow-replica-key-299"); got != ":1" {
		t.Fatalf("primary QUERY after drop = %q", got)
	}
}

// TestTakeoverVerbsAccounted: REPLCONF, PSYNC and MONITOR are rows of
// the verb table like every other, so a replica link and a monitor feed
// show in she_command_seconds and in CLIENT LIST — counted and timed up
// to the moment the connection was handed over.
func TestTakeoverVerbsAccounted(t *testing.T) {
	primary := startServer(t, Config{WALDir: t.TempDir(), DebugListen: "127.0.0.1:0"})
	startServer(t, Config{WALDir: t.TempDir(), ReplicaOf: primary.Addr().String()})
	if got := dial(t, primary.Addr().String()).cmd("MONITOR"); got != "+OK" {
		t.Fatalf("MONITOR = %q", got)
	}
	pc := dial(t, primary.Addr().String())
	var rows []string
	eventually(t, "a replica link and a monitor feed in CLIENT LIST", func() bool {
		rows = pc.array("CLIENT LIST")
		return strings.Contains(strings.Join(rows, "\n"), "replica=true") &&
			strings.Contains(strings.Join(rows, "\n"), "monitor=true")
	})
	for _, row := range rows {
		switch {
		case strings.Contains(row, "replica=true"):
			// The follower's handshake: PING, REPLCONF listening-port, PSYNC.
			if !strings.HasSuffix(row, "per_verb=PING:1,PSYNC:1,REPLCONF:1") || !strings.Contains(row, " cmds=3 ") {
				t.Errorf("the replica link's row undercounts it: %s", row)
			}
		case strings.Contains(row, "monitor=true"):
			if !strings.HasSuffix(row, "per_verb=MONITOR:1") {
				t.Errorf("the monitor feed's row undercounts it: %s", row)
			}
		}
	}
	body := scrape(t, primary)
	for _, verb := range []string{"REPLCONF", "PSYNC", "MONITOR"} {
		if want := fmt.Sprintf("she_command_seconds_count{verb=%q} 1\n", verb); !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %s", strings.TrimSpace(want))
		}
	}
}
