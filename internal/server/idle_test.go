package server

// What the idle read deadline and Shutdown promise, pinned from the
// client's side. The deadline is armed before each socket read (see
// idleReader), so the clock a connection is reaped by starts at its
// latest byte — whether that byte ended a line or not — and Shutdown's
// immediate deadline is never overwritten by a later arm.

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// idleT is the IdleTimeout these tests run under. Every wait below is a
// fraction of it and the closest any gets to a deadline is 0.2·idleT,
// which has to exceed the scheduling noise of a loaded two-core box.
const idleT = 600 * time.Millisecond

// reapedAfter waits for the server to close c and returns how long
// after the instant since it did.
func reapedAfter(t *testing.T, c *client, since time.Time) time.Duration {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * idleT))
	if line, err := c.r.ReadString('\n'); err != io.EOF {
		t.Fatalf("want EOF from an idle connection, got %q, %v", line, err)
	}
	return time.Since(since)
}

func TestIdleReapAfterPipelinedBurst(t *testing.T) {
	t.Parallel()
	s := startServer(t, Config{IdleTimeout: idleT})
	c := dial(t, s.Addr().String())
	if got := c.cmd("SKETCH.CREATE b bloom bits=65536 window=65536 shards=2"); got != "+OK" {
		t.Fatalf("CREATE = %q", got)
	}
	const lines = 10_000
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "SKETCH.INSERT b %d\nSKETCH.QUERY b %d\n", i, i)
	}
	sent := time.Now()
	if _, err := io.WriteString(c.conn, sb.String()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*lines; i++ {
		if got := c.recv(); got != ":1" {
			t.Fatalf("reply %d = %q, want :1", i, got)
		}
	}
	answered := time.Now()
	// The server flushes the last replies and then reads again, so the
	// arm that reaps the connection falls between the last byte sent
	// and the last reply received.
	if after := reapedAfter(t, c, sent); after < idleT {
		t.Fatalf("reaped %v after the burst was sent, sooner than IdleTimeout %v", after, idleT)
	}
	if after := time.Since(answered); after > 2*idleT {
		t.Fatalf("reaped %v after the burst was answered, want one IdleTimeout (%v)", after, idleT)
	}
}

func TestIdleHalfLine(t *testing.T) {
	t.Parallel()
	s := startServer(t, Config{IdleTimeout: idleT})
	addr := s.Addr().String()

	// A line and a half after 0.8·T of silence, the rest 0.5·T later:
	// 1.3·T after the connection last went quiet, but never more than
	// 0.8·T after a byte. (Replies are flushed when the input buffer is
	// empty, so the first line's waits for the second's.)
	t.Run("after-a-line", func(t *testing.T) {
		t.Parallel()
		c := dial(t, addr)
		time.Sleep(idleT * 8 / 10)
		io.WriteString(c.conn, "PING\nPI")
		time.Sleep(idleT / 2)
		io.WriteString(c.conn, "NG\n")
		for i := 0; i < 2; i++ {
			if got := c.recv(); got != "+PONG" {
				t.Fatalf("reply %d = %q", i, got)
			}
		}
	})
	// The same with nothing but the half line: the read that delivers it
	// ran under a deadline armed 0.8·T earlier, and the line must not
	// inherit the 0.2·T that deadline had left.
	t.Run("alone", func(t *testing.T) {
		t.Parallel()
		c := dial(t, addr)
		time.Sleep(idleT * 8 / 10)
		io.WriteString(c.conn, "PI")
		time.Sleep(idleT / 2)
		io.WriteString(c.conn, "NG\n")
		if got := c.recv(); got != "+PONG" {
			t.Fatalf("completed line = %q", got)
		}
	})
	// A half line followed by silence is reaped one IdleTimeout after
	// the half line, not one after the connection went quiet.
	t.Run("stalled", func(t *testing.T) {
		t.Parallel()
		c := dial(t, addr)
		time.Sleep(idleT * 8 / 10)
		sent := time.Now()
		io.WriteString(c.conn, "PI")
		if after := reapedAfter(t, c, sent); after < idleT || after > 2*idleT {
			t.Fatalf("reaped %v after the half line, want one IdleTimeout (%v)", after, idleT)
		}
	})
}

func TestIdleActiveClientNeverReaped(t *testing.T) {
	t.Parallel()
	s := startServer(t, Config{IdleTimeout: idleT})
	c := dial(t, s.Addr().String())
	for end := time.Now().Add(3 * idleT); time.Now().Before(end); time.Sleep(idleT / 4) {
		if got := c.cmd("PING"); got != "+PONG" {
			t.Fatalf("PING = %q", got)
		}
	}
}

// TestShutdownDrainsBusyAndIdleClients: Shutdown returns — drained, not
// timed out — with one client parked in a read and another in the
// middle of an endless pipeline, with and without an idle deadline for
// the per-read arm to race Shutdown's immediate one.
func TestShutdownDrainsBusyAndIdleClients(t *testing.T) {
	for _, idle := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprint("idle=", idle), func(t *testing.T) {
			t.Parallel()
			s := startServer(t, Config{IdleTimeout: idle})
			quiet := dial(t, s.Addr().String())
			if got := quiet.cmd("SKETCH.CREATE b bloom bits=65536 window=65536 shards=2"); got != "+OK" {
				t.Fatalf("CREATE = %q", got)
			}
			busy, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer busy.Close()
			chunk := []byte(strings.Repeat("SKETCH.INSERT b 1\nSKETCH.QUERY b 1\n", 2000))
			wrote := make(chan struct{})
			go func() { // writes until the server hangs up
				defer close(wrote)
				for {
					if _, err := busy.Write(chunk); err != nil {
						return
					}
				}
			}()
			go io.Copy(io.Discard, busy) // ends with the connection
			time.Sleep(50 * time.Millisecond)

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			start := time.Now()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("Shutdown took %v", took)
			}
			<-wrote
			quiet.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := quiet.r.ReadString('\n'); err != io.EOF {
				t.Fatalf("idle client should see EOF after shutdown, got %v", err)
			}
		})
	}
}
