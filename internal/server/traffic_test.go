package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHotkeysDisabled pins the off-by-default contract: without
// -traffic-sample the verb refuses with a pointer at the flag.
func TestHotkeysDisabled(t *testing.T) {
	s := startServer(t, Config{Logger: quiet()})
	c := dial(t, s.Addr().String())
	got := c.cmd("HOTKEYS")
	if !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, "-traffic-sample") {
		t.Fatalf("HOTKEYS while disabled = %q", got)
	}
}

// TestHotkeysWire covers the HOTKEYS verb end to end at sample rate 1:
// the bare summary, the per-sketch listing with scaled counts, and the
// error/empty cases.
func TestHotkeysWire(t *testing.T) {
	s := startServer(t, Config{TrafficSample: 1, Logger: quiet()})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE fx cm counters=65536 window=65536 shards=4")
	c.cmd("SKETCH.CREATE empty bloom bits=65536 window=4096")
	for i := 0; i < 30; i++ {
		c.cmd("SKETCH.INSERT fx 7")
	}
	for i := 0; i < 5; i++ {
		c.cmd("SKETCH.INSERT fx 8")
	}

	rows := c.array("HOTKEYS fx 2")
	if len(rows) != 2 {
		t.Fatalf("HOTKEYS fx 2 = %v", rows)
	}
	// At rate 1 the estimate equals the sampled count equals the true
	// count (CM may overcount, never under).
	if !strings.HasPrefix(rows[0], "key=7 ") || !strings.Contains(rows[0], "est_count=3") {
		t.Fatalf("top row = %q, want key=7 est_count=3x", rows[0])
	}
	if !strings.HasPrefix(rows[1], "key=8 ") {
		t.Fatalf("second row = %q, want key=8", rows[1])
	}

	summary := c.array("HOTKEYS")
	joined := strings.Join(summary, "\n")
	if len(summary) != 1 || !strings.Contains(joined, "fx sampled_keys=35") ||
		!strings.Contains(joined, "top=7:30") {
		t.Fatalf("HOTKEYS summary = %v", summary)
	}

	// An existing sketch with no sampled traffic lists as empty, a
	// missing sketch errors, a bad k errors.
	if rows := c.array("HOTKEYS empty"); len(rows) != 0 {
		t.Fatalf("HOTKEYS empty = %v", rows)
	}
	if got := c.cmd("HOTKEYS nosuch"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("HOTKEYS nosuch = %q", got)
	}
	for _, k := range []string{"zero", "10abc", "1_000"} {
		if got := c.cmd("HOTKEYS fx %s", k); !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, "bad k") {
			t.Fatalf("HOTKEYS fx %s = %q", k, got)
		}
	}

	// DROP forgets the track.
	c.cmd("SKETCH.DROP fx")
	if got := c.cmd("HOTKEYS fx"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("HOTKEYS after DROP = %q", got)
	}
}

// TestHotkeysZipfRecall is the accuracy gate from the sampling error
// model: a Zipf(1.1) stream sampled 1-in-64 must still surface ≥9 of
// the true top-10 keys. The stream and the sampler are both
// deterministic (seeded generator, counter-based 1-in-N), so this is a
// regression test, not a flake.
func TestHotkeysZipfRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		inserts = 200000
		rate    = 64
	)
	s := startServer(t, Config{TrafficSample: rate, Logger: quiet()})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE zx cm counters=262144 window=1048576 shards=4")

	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<20)
	exact := make(map[uint64]int)
	var payload strings.Builder
	payload.Grow(inserts * 24)
	for i := 0; i < inserts; i++ {
		k := zipf.Uint64()
		exact[k]++
		fmt.Fprintf(&payload, "SKETCH.INSERT zx %d\n", k)
	}
	// One pipelined write, then drain the per-line replies.
	if _, err := c.conn.Write([]byte(payload.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inserts; i++ {
		if line := c.recv(); line != ":1" {
			t.Fatalf("insert %d reply %q", i, line)
		}
	}

	type kc struct {
		key uint64
		n   int
	}
	all := make([]kc, 0, len(exact))
	for k, n := range exact {
		all = append(all, kc{k, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].key < all[j].key
	})
	top := map[uint64]bool{}
	for _, e := range all[:10] {
		top[e.key] = true
	}

	rows := c.array("HOTKEYS zx 10")
	hits := 0
	for _, row := range rows {
		var key, est, sampled uint64
		if _, err := fmt.Sscanf(row, "key=%d est_count=%d sampled=%d", &key, &est, &sampled); err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		if top[key] {
			hits++
		}
		if est != sampled*rate {
			t.Fatalf("row %q: est != sampled×%d", row, rate)
		}
	}
	if hits < 9 {
		t.Fatalf("recall@10 = %d/10 at 1/%d sampling, want ≥9 (exact top: %v, got: %v)",
			hits, rate, all[:10], rows)
	}
}

// TestHotkeysNoSketchNoTrack: a sampled insert to a name with no
// sketch is refused and builds no hot-key track, so HOTKEYS has nothing
// to say about that name — a track belongs to its sketch.
func TestHotkeysNoSketchNoTrack(t *testing.T) {
	s := startServer(t, Config{TrafficSample: 1, Logger: quiet()})
	c := dial(t, s.Addr().String())
	for _, line := range []string{"SKETCH.INSERT nosuch 1 2 3", "MINSERT nosuch 4 5"} {
		if got := c.cmd(line); got != `-ERR no such sketch "nosuch"` {
			t.Fatalf("%s = %q", line, got)
		}
	}
	if rows := c.array("HOTKEYS"); len(rows) != 0 {
		t.Fatalf("HOTKEYS after refused inserts = %v, want empty", rows)
	}
	if got := c.cmd("HOTKEYS nosuch"); got != `-ERR no such sketch "nosuch"` {
		t.Fatalf("HOTKEYS nosuch = %q", got)
	}
}

// TestHotkeysFullSyncEmpties: a node that fed x and then full-syncs
// from a primary without x loses x's hot-key track with x itself.
func TestHotkeysFullSyncEmpties(t *testing.T) {
	primary := startServer(t, Config{WALDir: t.TempDir(), Logger: quiet()})
	pc := dial(t, primary.Addr().String())
	if got := pc.cmd("SKETCH.CREATE y cm counters=4096 window=4096"); got != "+OK" {
		t.Fatalf("primary CREATE = %q", got)
	}
	node := startServer(t, Config{WALDir: t.TempDir(), TrafficSample: 1, Logger: quiet()})
	nc := dial(t, node.Addr().String())
	nc.cmd("SKETCH.CREATE x cm counters=4096 window=4096")
	nc.cmd("SKETCH.INSERT x 5 5 5 6")
	if rows := nc.array("HOTKEYS"); len(rows) != 1 || rows[0] != "x sampled_keys=4 top=5:3,6:1" {
		t.Fatalf("HOTKEYS before the sync = %v", rows)
	}

	host, port := splitAddr(t, primary.Addr().String())
	if got := nc.cmd("REPLICAOF %s %s", host, port); got != "+OK" {
		t.Fatalf("REPLICAOF = %q", got)
	}
	eventually(t, "full sync", func() bool {
		list := nc.array("SKETCH.LIST")
		return len(list) == 1 && strings.HasPrefix(list[0], "y ")
	})
	if rows := nc.array("HOTKEYS"); len(rows) != 0 {
		t.Fatalf("HOTKEYS after the full sync = %v, want empty", rows)
	}
	if got := nc.cmd("HOTKEYS x"); got != `-ERR no such sketch "x"` {
		t.Fatalf("HOTKEYS x after the full sync = %q", got)
	}
}

// TestHotkeysTrackInMemoryBudget: a hot-key track is sketch memory.
// The first sampled insert builds it and INFO memory_used_bytes rises
// by its size; SKETCH.DROP takes it away with the sketch.
func TestHotkeysTrackInMemoryBudget(t *testing.T) {
	s := startServer(t, Config{MaxMemory: 1 << 30, TrafficSample: 1, Logger: quiet()})
	c := dial(t, s.Addr().String())
	used := func() int64 { return infoInt(c, "memory_used_bytes") }
	eventually(t, "the connection in the budget", func() bool { return used() > 0 })
	base := used()
	// CREATE and DROP re-measure before they answer.
	c.cmd("SKETCH.CREATE fx cm counters=4096 window=4096 shards=1")
	created := used()
	if created <= base {
		t.Fatalf("memory_used_bytes %d after CREATE, want above %d", created, base)
	}
	c.cmd("SKETCH.INSERT fx 7")
	eventually(t, "the track in the budget", func() bool { return used() > created })
	if grew := used() - created; grew < 16<<10 {
		t.Fatalf("the track added %d bytes, want at least its 4096 counters (16 KiB)", grew)
	}
	c.cmd("SKETCH.DROP fx")
	if got := used(); got != base {
		t.Fatalf("memory_used_bytes %d after DROP, want %d as before CREATE", got, base)
	}
}

// TestClientCommands covers CLIENT LIST / SETNAME / GETNAME / KILL on
// live connections.
func TestClientCommands(t *testing.T) {
	s := startServer(t, Config{Logger: quiet()})
	c1 := dial(t, s.Addr().String())
	c2 := dial(t, s.Addr().String())
	c2.cmd("PING") // ensure c2 is registered and has a verb count

	if got := c1.cmd("CLIENT SETNAME ingest-1"); got != "+OK" {
		t.Fatalf("SETNAME = %q", got)
	}
	if got := c1.cmd("CLIENT GETNAME"); got != "+ingest-1" {
		t.Fatalf("GETNAME = %q", got)
	}
	if got := c1.cmd("CLIENT SETNAME bad name!"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("SETNAME invalid = %q", got)
	}

	rows := c1.array("CLIENT LIST")
	if len(rows) != 2 {
		t.Fatalf("CLIENT LIST = %v", rows)
	}
	joined := strings.Join(rows, "\n")
	c2addr := c2.conn.LocalAddr().String()
	if !strings.Contains(joined, "name=ingest-1") || !strings.Contains(joined, "addr="+c2addr) {
		t.Fatalf("CLIENT LIST rows = %v", rows)
	}
	if !strings.Contains(joined, "PING:") {
		t.Fatalf("per-verb accounting missing from %v", rows)
	}

	// INFO carries the connection accounting.
	info := strings.Join(c1.array("INFO"), "\n")
	for _, want := range []string{"clients_connected=2", "clients_bytes_in=", "traffic_sample=0"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}

	if got := c1.cmd("CLIENT KILL 1.2.3.4:5"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("KILL unknown = %q", got)
	}
	if got := c1.cmd("CLIENT KILL %s", c2addr); got != "+OK" {
		t.Fatalf("KILL = %q", got)
	}
	// The killed connection observes the close.
	c2.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c2.r.ReadByte(); err == nil {
		t.Fatal("killed connection still readable")
	}
	if got := c1.cmd("CLIENT BOGUS"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("CLIENT BOGUS = %q", got)
	}
}

// TestClientListAfterFastPipeline: the fast path settles a connection's
// accounting once per drain, not per command — by the time the pipeline
// is answered, CLIENT LIST from another connection shows every query
// and insert it carried and an idle clock restarted at the drain.
func TestClientListAfterFastPipeline(t *testing.T) {
	s := startServer(t, Config{Logger: quiet()})
	admin := dial(t, s.Addr().String())
	admin.cmd("SKETCH.CREATE b bloom bits=65536 window=65536 shards=2")
	admin.cmd("SKETCH.CREATE h hll registers=256 window=65536 shards=2")

	c := dial(t, s.Addr().String())
	time.Sleep(1100 * time.Millisecond) // idle= is in whole seconds
	const n = 500
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "SKETCH.INSERT b %d\nSKETCH.QUERY b %[1]d\nMINSERT h %[1]d x\nSKETCH.CARD h\n", i)
	}
	if _, err := c.conn.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*n; i++ {
		c.recv()
	}
	var row string
	for _, r := range admin.array("CLIENT LIST") {
		if strings.Contains(r, "addr="+c.conn.LocalAddr().String()+" ") {
			row = r
		}
	}
	for _, want := range []string{
		" idle=0 ", fmt.Sprintf(" cmds=%d ", 4*n), fmt.Sprintf(" keys=%d ", 3*n), " verb=SKETCH.CARD ",
		fmt.Sprintf("per_verb=MINSERT:%[1]d,SKETCH.CARD:%[1]d,SKETCH.INSERT:%[1]d,SKETCH.QUERY:%[1]d", n),
	} {
		if !strings.Contains(row, want) {
			t.Errorf("CLIENT LIST row %q lacks %q", row, want)
		}
	}
	if got := s.Counters()["commands_total"]; got != 4*n+3 {
		t.Errorf("commands_total = %d, want %d", got, 4*n+3)
	}
}

// TestClientKillReplicaRefused pins the replication-safety rule:
// CLIENT KILL must not offer a raw close of a PSYNC link — the
// Tracker's ack cursor detaches only through the replication layer's
// own eviction. After the refusal the link keeps replicating.
func TestClientKillReplicaRefused(t *testing.T) {
	primary := startServer(t, Config{WALDir: t.TempDir(), Logger: quiet()})
	pc := dial(t, primary.Addr().String())
	pc.cmd("SKETCH.CREATE flows cm counters=65536 window=65536 shards=4")
	pc.cmd("SKETCH.INSERT flows seed")

	follower := startServer(t, Config{
		WALDir:    t.TempDir(),
		ReplicaOf: primary.Addr().String(),
		Logger:    quiet(),
	})
	fc := dial(t, follower.Addr().String())
	eventually(t, "full sync", func() bool {
		return queryInt(fc, "SKETCH.QUERY flows seed") >= 1
	})

	var replAddr string
	eventually(t, "replica row", func() bool {
		for _, row := range pc.array("CLIENT LIST") {
			if strings.Contains(row, "replica=true") {
				for _, f := range strings.Fields(row) {
					if strings.HasPrefix(f, "addr=") {
						replAddr = strings.TrimPrefix(f, "addr=")
						return true
					}
				}
			}
		}
		return false
	})

	got := pc.cmd("CLIENT KILL %s", replAddr)
	if !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, "replication link") {
		t.Fatalf("KILL replica = %q", got)
	}

	// The link survived the attempt: new writes still flow, and the
	// tracker's ack cursor still advances (ROLE keeps one replica).
	pc.cmd("SKETCH.INSERT flows after-kill")
	eventually(t, "replication alive", func() bool {
		return queryInt(fc, "SKETCH.QUERY flows after-kill") >= 1
	})
	role := pc.array("ROLE")
	if len(role) == 0 || role[0] != "role=primary replicas=1" {
		t.Fatalf("ROLE after refused kill = %v", role)
	}
}

// TestMonitorFeed smoke-tests the MONITOR verb over the wire: +OK,
// then frames for sampled commands from other connections, ending
// cleanly when the monitor hangs up.
func TestMonitorFeed(t *testing.T) {
	s := startServer(t, Config{TrafficSample: 1, Logger: quiet()})
	mon := dialRaw(t, s.Addr().String())
	if got := mon.cmd("MONITOR"); got != "+OK" {
		t.Fatalf("MONITOR = %q", got)
	}

	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE fx cm counters=65536 window=65536 shards=4")
	c.cmd("SKETCH.INSERT fx 42")
	c.cmd("PING")

	mon.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	want := map[string]bool{"SKETCH.CREATE": false, "SKETCH.INSERT fx 42": false, "PING": false}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		frame := mon.recv()
		if !strings.HasPrefix(frame, "+") || !strings.Contains(frame, "["+c.conn.LocalAddr().String()+"]") {
			t.Fatalf("frame = %q", frame)
		}
		for w := range want {
			if strings.Contains(frame, w) {
				want[w] = true
			}
		}
		all := true
		for _, seen := range want {
			all = all && seen
		}
		if all {
			return
		}
	}
	t.Fatalf("missing frames: %v", want)
}

// TestTrafficChurnRace exercises CLIENT LIST/KILL and MONITOR
// subscribe/unsubscribe concurrently with traffic; its value is under
// -race.
func TestTrafficChurnRace(t *testing.T) {
	s := startServer(t, Config{TrafficSample: 2, Logger: quiet()})
	admin := dial(t, s.Addr().String())
	admin.cmd("SKETCH.CREATE fx cm counters=65536 window=65536 shards=4")

	// Off the test's goroutine a failure is t.Error, and it ends the
	// goroutine.
	var wg sync.WaitGroup
	churn := func(conns, cmds int, cmd func(i int) string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < conns; k++ {
				c := dialRaw(t, s.Addr().String())
				if c == nil {
					return
				}
				for i := 0; i < cmds; i++ {
					head, ok := c.try(cmd(i))
					var n int
					fmt.Sscanf(head, "*%d", &n)
					for j := 0; ok && j < n; j++ {
						_, ok = c.line()
					}
					if !ok {
						t.Errorf("%s: no reply", cmd(i))
						break
					}
				}
				time.Sleep(time.Millisecond)
				c.conn.Close()
			}
		}()
	}
	for g := 0; g < 3; g++ {
		churn(1, 300, func(i int) string { return fmt.Sprintf("SKETCH.INSERT fx %d", i) })
	}
	churn(1, 100, func(int) string { return "CLIENT LIST" })
	churn(20, 1, func(int) string { return "MONITOR" })
	wg.Wait()
	if got := admin.cmd("PING"); got != "+PONG" {
		t.Fatalf("server unhealthy after churn: %q", got)
	}
}

// dialRaw is dial without the t.Cleanup-owned close (churn goroutines
// manage their own connection lifetimes).
func dialRaw(t *testing.T, addr string) *client {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return nil
	}
	return &client{t: t, conn: conn, r: bufio.NewReader(conn)}
}
