package server

// Full-sync tests: the primary seals its registry at the log tip with
// no checkpoint of its own, the follower checkpoints once, when the
// transfer is complete, and a semi-synchronous commit counts a
// full-syncing replica only once it has acknowledged its start.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"she/internal/repl"
)

// fullSyncPrimary stands in for a primary: it answers every replication
// handshake with a +FULLRESYNC that announces files snapshot files, and
// sends one of them: file, under name. When one is all it announced,
// ENDSNAP follows; otherwise the transfer stalls after the first file.
// Either way the session is held open until the follower hangs up. It
// returns the listener's address.
func fullSyncPrimary(t *testing.T, files int, name string, file []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
				for _, reply := range []string{"+PONG", "+OK", fmt.Sprintf("+FULLRESYNC 1 1 0 %d", files)} {
					if _, err := r.ReadString('\n'); err != nil {
						return
					}
					w.WriteString(reply + "\n")
					w.Flush()
				}
				repl.WriteSnapshotFile(w, name, file)
				if files == 1 {
					w.WriteString("ENDSNAP\n")
				}
				w.Flush()
				io.Copy(io.Discard, r)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestReplicationFullSyncTakesNoPrimaryCheckpoint: a full sync reads
// the primary's registry, not its disk. The primary's checkpoint count
// and its snapshot generations do not move across a follower's full
// sync, and the follower, bootstrapped to the primary's sketches,
// checkpoints exactly once.
func TestReplicationFullSyncTakesNoPrimaryCheckpoint(t *testing.T) {
	pdir := t.TempDir()
	primary := startWAL(t, pdir, nil, 0)
	c := dial(t, primary.Addr().String())
	c.must("SKETCH.CREATE flows cm counters=1024 window=1024 shards=2", "+OK")
	c.must("SKETCH.INSERT flows 1 2 3", ":3")
	if err := primary.checkpoint(true, nil); err != nil {
		t.Fatal(err)
	}
	c.must("SKETCH.INSERT flows 3 4", ":2")
	chk := primary.ctr.Checkpoints.Value()
	gens, err := filepath.Glob(filepath.Join(pdir, "snap-*"))
	if err != nil || len(gens) != 1 {
		t.Fatalf("primary generations before the sync: %q, %v", gens, err)
	}

	follower := startFollower(t, t.TempDir(), primary, 0)
	eventually(t, "full sync", func() bool { return caughtUp(primary, follower) })
	sameImage(t, "follower after the full sync", registryImage(t, follower), registryImage(t, primary))
	if got := primary.ctr.Checkpoints.Value(); got != chk {
		t.Fatalf("primary checkpoints went %d → %d across a full sync", chk, got)
	}
	if after, _ := filepath.Glob(filepath.Join(pdir, "snap-*")); !slices.Equal(after, gens) {
		t.Fatalf("primary generations went %q → %q across a full sync", gens, after)
	}
	if got := follower.ctr.Checkpoints.Value(); got != 1 {
		t.Fatalf("follower checkpointed %d times for one full sync, want 1", got)
	}
}

// TestFollowerCrashMidFullSyncKeepsState: a full sync leaves the
// replica's checkpoint and log alone until the transfer is complete. A
// node killed after the first file of a stalled transfer recovers,
// restarted on its own, exactly what it held before REPLICAOF.
func TestFollowerCrashMidFullSyncKeepsState(t *testing.T) {
	dir := t.TempDir()
	s := startWAL(t, dir, nil, 0)
	c := dial(t, s.Addr().String())
	c.must("SKETCH.CREATE old cm counters=1024 window=1024 shards=2", "+OK")
	c.must("SKETCH.INSERT old 5 5 5", ":3")
	want := registryImage(t, s)

	fresh, err := NewSketch("bloom", map[string]string{"bits": "4096"})
	if err != nil {
		t.Fatal(err)
	}
	file, err := sealSketch(fresh)
	if err != nil {
		t.Fatal(err)
	}
	host, port, _ := net.SplitHostPort(fullSyncPrimary(t, 2, "new", file))
	c.must("REPLICAOF "+host+" "+port, "+OK")
	eventually(t, "the first file loaded", func() bool {
		_, err := s.Registry().Get("new")
		return err == nil
	})
	s.Abort()

	alone := startWAL(t, dir, nil, 0)
	sameImage(t, "restarted after a cut full sync", registryImage(t, alone), want)
	dial(t, alone.Addr().String()).must("SKETCH.QUERY old 5", ":3")
}

// TestFollowerPromoteMidFullSyncKeepsRegistry: REPLICAOF NO ONE in the
// middle of a full sync's transfer puts back the sketches the node held
// before REPLICAOF — what its untouched checkpoint and log recover — so
// the promoted node serves no partial registry, and what it then
// acknowledges survives a crash.
func TestFollowerPromoteMidFullSyncKeepsRegistry(t *testing.T) {
	dir := t.TempDir()
	s := startWAL(t, dir, nil, 0)
	c := dial(t, s.Addr().String())
	c.must("SKETCH.CREATE old cm counters=1024 window=1024 shards=2", "+OK")
	c.must("SKETCH.INSERT old 5 5 5", ":3")
	want := registryImage(t, s)

	fresh, err := NewSketch("bloom", map[string]string{"bits": "4096"})
	if err != nil {
		t.Fatal(err)
	}
	file, err := sealSketch(fresh)
	if err != nil {
		t.Fatal(err)
	}
	host, port, _ := net.SplitHostPort(fullSyncPrimary(t, 2, "new", file))
	c.must("REPLICAOF "+host+" "+port, "+OK")
	eventually(t, "the first file loaded", func() bool {
		_, err := s.Registry().Get("new")
		return err == nil
	})
	c.must("REPLICAOF NO ONE", "+OK")
	sameImage(t, "promoted mid-transfer", registryImage(t, s), want)
	c.must("SKETCH.INSERT old 7", ":1")
	want = registryImage(t, s)
	s.Abort()

	alone := startWAL(t, dir, nil, 0)
	sameImage(t, "restarted after the promotion", registryImage(t, alone), want)
	dial(t, alone.Addr().String()).must("SKETCH.QUERY old 7", ":1")
}

// TestReplicationSemiSyncWaitsForFullSyncAck: a replica that was sent a
// full sync holds nothing durable until it acknowledges the start, so a
// semi-synchronous commit does not count it before. A bare client that
// sends PSYNC ? and nothing else must not release an insert waiting on
// the barrier.
func TestReplicationSemiSyncWaitsForFullSyncAck(t *testing.T) {
	s := startServer(t, Config{
		WALDir:       t.TempDir(),
		SyncReplicas: 1, SyncReplicaTimeout: 300 * time.Millisecond,
	})
	const timedOut = "-ERR repl: timed out"
	// A failed barrier closes its connection: the insert takes another.
	if reply, _ := dial(t, s.Addr().String()).try("SKETCH.CREATE flows cm counters=1024"); !strings.HasPrefix(reply, timedOut) {
		t.Fatalf("CREATE with no replica = %q, want %s…", reply, timedOut)
	}
	before := s.wal.Position()
	replies := make(chan string, 1)
	c := dial(t, s.Addr().String())
	go func() {
		reply, _ := c.try("SKETCH.INSERT flows a")
		replies <- reply
	}()
	eventually(t, "the insert durable and waiting on the barrier", func() bool { return s.wal.Position() != before })
	if reply, _ := dial(t, s.Addr().String()).try("PSYNC ?"); !strings.HasPrefix(reply, "+FULLRESYNC ") {
		t.Fatalf("PSYNC ? = %q", reply)
	}
	if reply := <-replies; !strings.HasPrefix(reply, timedOut) {
		t.Fatalf("insert with only an unacknowledged full sync attached = %q, want %s…", reply, timedOut)
	}
}
