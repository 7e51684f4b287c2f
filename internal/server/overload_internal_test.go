package server

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

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

	s := New(Config{
		Listen:         "127.0.0.1:0",
		MaxInflight:    1,
		CommandTimeout: 100 * time.Millisecond,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Abort()

	// Occupy the only admission slot.
	holder := dialServer(t, s)
	if _, err := fmt.Fprintf(holder.conn, "SKETCH.CARD hold-slot\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-block:
	case <-time.After(5 * time.Second):
		t.Fatal("slot-holding command never started executing")
	}

	// A second client cannot get the slot within the timeout.
	c2 := dialServer(t, s)
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
	s := New(Config{Listen: "127.0.0.1:0", TrafficSample: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	// Subscribe straight at the hub and never read: the worst consumer.
	sub := s.hub.Subscribe()
	defer s.hub.Unsubscribe(sub)

	c := dialServer(t, s)
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
