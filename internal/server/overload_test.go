package server

// Overload tests: the degradation ladder under a memory budget,
// admission control under an in-flight cap, and a MONITOR subscriber
// that never reads, which costs the insert path nothing.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// infoValue extracts one key=value line from INFO, "" when absent.
func infoValue(c *client, key string) string {
	c.t.Helper()
	for _, line := range c.array("INFO") {
		if strings.HasPrefix(line, key+"=") {
			return strings.TrimPrefix(line, key+"=")
		}
	}
	return ""
}

func infoInt(c *client, key string) int64 {
	c.t.Helper()
	v, _ := strconv.ParseInt(infoValue(c, key), 10, 64)
	return v
}

// TestOverloadLadder walks the whole degradation ladder under a 1 MiB
// budget: creates push usage through shed_audit (audit shadows
// shrink), shed_slowlog (slow-query recording stops), refuse_create
// (SKETCH.CREATE answers -ERR OOM), and idle connections push past
// 100% into refuse_insert (-ERR OOM on INSERT while queries keep
// answering) — then freeing memory steps every rung back down and
// restores the audit shadows.
func TestOverloadLadder(t *testing.T) {
	const limit = 1 << 20
	s := startServer(t, Config{
		DebugListen:   "127.0.0.1:0",
		MaxMemory:     limit,
		AuditSample:   1,
		AuditMaxKeys:  100,
		SlowThreshold: time.Nanosecond, // every command qualifies as slow
	})
	c := dial(t, s.Addr().String())
	used := func() int64 { return infoInt(c, "memory_used_bytes") }
	level := func() string { return infoValue(c, "overload_level") }

	if got := level(); got != "none" {
		t.Fatalf("initial overload_level = %q, want none", got)
	}

	// createTo grows accounted usage to target·limit with bloom sketches
	// sized from the live INFO reading. The budget counts resident
	// bytes, and a bloom filter with the default 64-bit groups holds a
	// clock word for every cell word — bits/4 bytes in all. Each create
	// asks for well under the remaining gap (the audit shadow errs the
	// actual footprint high), so the loop converges from below without
	// overshooting past the next rung. A refused create ends the climb —
	// that is the refuse_create rung doing its job.
	sketches := 0
	createTo := func(target float64) (refused bool) {
		t.Helper()
		for i := 0; used() < int64(target*limit); i++ {
			if i > 100 {
				t.Fatalf("createTo(%g) did not converge (used %d)", target, used())
			}
			bits := (int64(target*limit) - used()) * 4 * 3 / 5
			if bits < 8000 {
				bits = 8000
			}
			sketches++
			got := c.cmd("SKETCH.CREATE s%d bloom bits=%d window=4096 shards=1", sketches, bits)
			if strings.HasPrefix(got, "-ERR OOM") {
				sketches--
				return true
			}
			if got != "+OK" {
				t.Fatalf("CREATE s%d = %q", sketches, got)
			}
		}
		return false
	}

	// ≥80%: audit shadows shed to a quarter of their configured cap.
	if createTo(0.85) {
		t.Fatalf("create refused below the refuse_create rung (used %d)", used())
	}
	if got := level(); got != "shed_audit" {
		t.Fatalf("at %d/%d bytes overload_level = %q, want shed_audit", used(), limit, got)
	}
	eventually(t, "audit shadows shed", func() bool {
		return strings.Contains(scrape(t, s), `she_audit_shadow_cap{sketch="s1"} 25`)
	})

	// ≥90%: the slow-query log stops absorbing entries; the drop is
	// counted, not silent.
	if createTo(0.925) {
		t.Fatalf("create refused below the refuse_create rung (used %d)", used())
	}
	if got := level(); got != "shed_slowlog" {
		t.Fatalf("at %d/%d bytes overload_level = %q, want shed_slowlog", used(), limit, got)
	}
	slowLen := func() int64 {
		v, _ := strconv.ParseInt(strings.TrimPrefix(c.cmd("SLOWLOG LEN"), ":"), 10, 64)
		return v
	}
	before := slowLen()
	for i := 0; i < 5; i++ {
		c.cmd("PING")
	}
	if got := slowLen(); got != before {
		t.Errorf("slowlog grew %d -> %d at shed_slowlog", before, got)
	}
	if got := infoInt(c, "overload_slowlog_dropped"); got == 0 {
		t.Error("overload_slowlog_dropped did not count the suppressed entries")
	}

	// ≥95%: no new sketch allocations. The climb itself is ended by a
	// refusal once usage crosses the rung.
	if !createTo(0.99) {
		t.Fatalf("creates never refused climbing to 99%% (used %d)", used())
	}
	if got := level(); got != "refuse_create" {
		t.Fatalf("at %d/%d bytes overload_level = %q, want refuse_create", used(), limit, got)
	}
	if got := c.cmd("SKETCH.CREATE nope bloom bits=8000 window=4096"); !strings.HasPrefix(got, "-ERR OOM") {
		t.Fatalf("CREATE at refuse_create = %q, want -ERR OOM", got)
	}
	if got := infoInt(c, "overload_refused_creates"); got == 0 {
		t.Error("overload_refused_creates did not count")
	}
	// Inserts still flow at this rung.
	if got := c.cmd("SKETCH.INSERT s1 still-accepted"); got != ":1" {
		t.Fatalf("INSERT at refuse_create = %q", got)
	}

	// ≥100%: idle connections (96 KiB of accounted buffers each) push
	// usage past the budget; inserts get -ERR OOM, queries keep working.
	idle1 := dial(t, s.Addr().String())
	idle2 := dial(t, s.Addr().String())
	idle1.cmd("PING")
	idle2.cmd("PING")
	eventually(t, "refuse_insert rung", func() bool { return level() == "refuse_insert" })
	if got := c.cmd("SKETCH.INSERT s1 rejected"); !strings.HasPrefix(got, "-ERR OOM") {
		t.Fatalf("INSERT at refuse_insert = %q, want -ERR OOM", got)
	}
	if got := infoInt(c, "overload_oom_inserts"); got == 0 {
		t.Error("overload_oom_inserts did not count")
	}
	if got := c.cmd("SKETCH.QUERY s1 still-accepted"); got != ":1" {
		t.Fatalf("QUERY at refuse_insert = %q, want :1 (reads are never gated)", got)
	}
	if got := c.cmd("PING"); got != "+PONG" {
		t.Fatalf("PING at refuse_insert = %q", got)
	}

	// The overload gauges are exported.
	m := scrape(t, s)
	for _, want := range []string{
		"she_overload_level 4",
		"she_overload_memory_used_bytes",
		// strconv.FormatFloat('g') renders 1<<20 in e-notation
		"she_overload_memory_limit_bytes 1.048576e+06",
		"she_overload_transitions",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Free the memory: close the idle connections and drop every sketch
	// but s1. The ladder steps back down (judged by restored-audit usage
	// plus hysteresis, so it cannot oscillate) and the audit shadows
	// come back to full capacity.
	idle1.conn.Close()
	idle2.conn.Close()
	for i := 2; i <= sketches; i++ {
		if got := c.cmd("SKETCH.DROP s%d", i); got != "+OK" {
			t.Fatalf("DROP s%d = %q", i, got)
		}
	}
	eventually(t, "ladder descent to none", func() bool { return level() == "none" })
	eventually(t, "audit shadows restored", func() bool {
		return strings.Contains(scrape(t, s), `she_audit_shadow_cap{sketch="s1"} 100`)
	})
	if got := c.cmd("SKETCH.CREATE again bloom bits=8000 window=4096"); got != "+OK" {
		t.Fatalf("CREATE after recovery = %q", got)
	}
	if got := infoInt(c, "overload_transitions"); got < 5 {
		t.Errorf("overload_transitions = %d, want >= 5 (4 up + at least 1 down)", got)
	}
}

// TestAdmissionControlBusy: with MaxInflight 1, a command that arrives
// while the only slot is held waits up to CommandTimeout and is then
// answered -ERR BUSY instead of queueing without bound — and once the
// slot frees, the same connection is served normally. The slot is held
// via the testPanic hook, which blocks a marker command mid-execute.
func TestAdmissionControlBusy(t *testing.T) {
	block := make(chan struct{})
	release := make(chan struct{})
	testPanic = func(cmd Command) {
		if cmd.Name == "SKETCH.CARD" && len(cmd.Args) == 1 && cmd.Args[0] == "hold-slot" {
			close(block)
			<-release
		}
	}
	defer func() { testPanic = nil }()

	s := startServer(t, Config{
		MaxInflight:    1,
		CommandTimeout: 100 * time.Millisecond,
	})

	// Occupy the only admission slot.
	holder := dial(t, s.Addr().String())
	if _, err := fmt.Fprintf(holder.conn, "SKETCH.CARD hold-slot\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-block:
	case <-time.After(5 * time.Second):
		t.Fatal("slot-holding command never started executing")
	}

	// A second client cannot get the slot within the timeout.
	c2 := dial(t, s.Addr().String())
	reply, ok := c2.try("PING")
	if !ok || !strings.HasPrefix(reply, "-ERR BUSY") {
		t.Fatalf("PING while slot held = %q (ok=%v), want -ERR BUSY", reply, ok)
	}
	if got := s.Counters()["overload_busy_rejects"]; got < 1 {
		t.Fatalf("overload_busy_rejects = %d, want >= 1", got)
	}

	// The rejection is a reply, not a disconnect: freeing the slot lets
	// the same connection through.
	close(release)
	holder.conn.SetDeadline(time.Now().Add(5 * time.Second))
	line, err := holder.r.ReadString('\n') // the held command's own reply
	if err != nil || !strings.HasPrefix(line, "-ERR") {
		t.Fatalf("held command reply = %q, %v; want -ERR no such sketch", line, err)
	}
	c2.must("PING", "+PONG")
	holder.must("PING", "+PONG")
}

// TestMonitorLaggingDrops is the bounded-feed acceptance test: a
// subscriber that never drains costs the hot path nothing — inserts
// all succeed promptly, overflow frames are dropped and counted.
func TestMonitorLaggingDrops(t *testing.T) {
	s := startServer(t, Config{TrafficSample: 1})
	// Subscribe straight at the hub and never read: the worst consumer.
	sub := s.hub.Subscribe()
	defer s.hub.Unsubscribe(sub)

	c := dial(t, s.Addr().String())
	c.must("SKETCH.CREATE fx cm counters=65536 window=65536 shards=4", "+OK")
	const n = 3000
	var payload strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&payload, "SKETCH.INSERT fx %d\n", i)
	}
	start := time.Now()
	c.conn.SetDeadline(start.Add(30 * time.Second))
	if _, err := c.conn.Write([]byte(payload.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if line, err := c.r.ReadString('\n'); err != nil || line != ":1\n" {
			t.Fatalf("insert %d reply %q, %v", i, line, err)
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("inserts took %v behind a dead monitor", d)
	}
	if s.hub.Dropped() == 0 {
		t.Fatal("no frames dropped despite a never-draining subscriber")
	}
	head, _ := c.try("INFO")
	k, _ := strconv.Atoi(strings.TrimPrefix(head, "*"))
	var info strings.Builder
	for i := 0; i < k; i++ {
		line, _ := c.r.ReadString('\n')
		info.WriteString(line)
	}
	if !strings.Contains(info.String(), "monitor_dropped_total=") {
		t.Fatalf("INFO missing monitor_dropped_total:\n%s%s", head, info.String())
	}
}
