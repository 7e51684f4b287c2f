package server

import (
	"fmt"
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
