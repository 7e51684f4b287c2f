package server_test

import (
	"fmt"
	"strings"
	"testing"

	"she/internal/server"
)

// TestMinsertBasic pins the MINSERT wire semantics: one reply counting
// the batch's keys, slow-path-identical errors for the malformed
// shapes, and key tokens that agree with SKETCH.INSERT (decimal keys
// map to themselves, anything else hashes the same way).
func TestMinsertBasic(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dial(t, s.Addr().String())
	if got := c.cmd("SKETCH.CREATE flows bloom bits=65536 window=65536 shards=4"); got != "+OK" {
		t.Fatalf("CREATE = %q", got)
	}

	if got := c.cmd("MINSERT flows 1 2 3"); got != ":3" {
		t.Fatalf("MINSERT 3 keys = %q", got)
	}
	if got := c.cmd("minsert flows 4"); got != ":1" {
		t.Fatalf("lower-case minsert = %q", got)
	}
	if got := c.cmd("MINSERT flows alice bob"); got != ":2" {
		t.Fatalf("MINSERT hashed keys = %q", got)
	}
	for _, key := range []string{"1", "2", "3", "4", "alice", "bob"} {
		if got := c.cmd("SKETCH.QUERY flows %s", key); got != ":1" {
			t.Errorf("QUERY %s = %q, want :1", key, got)
		}
	}
	if got := c.cmd("SKETCH.QUERY flows nope"); got != ":0" {
		t.Fatalf("QUERY nope = %q", got)
	}

	// Malformed shapes fall back to the slow path and its error text.
	if got := c.cmd("MINSERT flows"); got != "-ERR MINSERT: want name key [key ...]" {
		t.Fatalf("MINSERT with no keys = %q, want usage error", got)
	}
	if got := c.cmd("MINSERT nosuch 1"); !strings.HasPrefix(got, "-ERR no such sketch") {
		t.Fatalf("MINSERT unknown sketch = %q", got)
	}
	if got := c.cmd("MINSERT flows a\x01b"); !strings.HasPrefix(got, "-ERR control byte") {
		t.Fatalf("MINSERT control byte = %q", got)
	}
	// The connection survives every -ERR above.
	if got := c.cmd("MINSERT flows 5"); got != ":1" {
		t.Fatalf("MINSERT after errors = %q", got)
	}
}

// TestMinsertMaxArgs probes the MaxArgs boundary: 127 keys (129
// tokens) is the largest accepted command; 128 keys is one too many.
func TestMinsertMaxArgs(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dial(t, s.Addr().String())
	if got := c.cmd("SKETCH.CREATE flows bloom bits=65536 window=65536 shards=2"); got != "+OK" {
		t.Fatalf("CREATE = %q", got)
	}
	line := func(keys int) string {
		var sb strings.Builder
		sb.WriteString("MINSERT flows")
		for i := 0; i < keys; i++ {
			fmt.Fprintf(&sb, " %d", i)
		}
		return sb.String()
	}
	if got := c.cmd("%s", line(server.MaxArgs-2)); got != fmt.Sprintf(":%d", server.MaxArgs-2) {
		t.Fatalf("MINSERT %d keys = %q", server.MaxArgs-2, got)
	}
	if got := c.cmd("%s", line(server.MaxArgs-1)); !strings.HasPrefix(got, "-ERR too many arguments") {
		t.Fatalf("MINSERT %d keys = %q, want too-many-arguments", server.MaxArgs-1, got)
	}
}

// TestMinsertPipelineStraddle pushes enough pipelined MINSERT lines in
// single writes that batches repeatedly straddle the server's read
// buffer: a refill mid-pipeline is a batch drain point, so the engine
// applies and commits partial batches and keeps going. Every line must
// be acked with its own count, and the totals must add up.
func TestMinsertPipelineStraddle(t *testing.T) {
	s := startServer(t, server.Config{DebugListen: "127.0.0.1:0"})
	c := dial(t, s.Addr().String())
	if got := c.cmd("SKETCH.CREATE flows bloom bits=1048576 window=1048576 shards=4"); got != "+OK" {
		t.Fatalf("CREATE = %q", got)
	}

	// ~37 bytes per line x 4096 lines ≈ 150KiB — crosses a 64KiB read
	// buffer twice over; mixed key counts so replies vary.
	const lines = 4096
	var sb strings.Builder
	wantKeys := 0
	for i := 0; i < lines; i++ {
		n := 1 + i%5
		sb.WriteString("MINSERT flows")
		for j := 0; j < n; j++ {
			fmt.Fprintf(&sb, " %d", 1_000_000+wantKeys+j)
		}
		sb.WriteByte('\n')
		wantKeys += n
	}
	if _, err := c.conn.Write([]byte(sb.String())); err != nil {
		t.Fatalf("pipelined write: %v", err)
	}
	for i := 0; i < lines; i++ {
		want := fmt.Sprintf(":%d", 1+i%5)
		if got := c.recv(); got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
	}
	if got := c.cmd("SKETCH.QUERY flows %d", 1_000_000); got != ":1" {
		t.Fatalf("QUERY first = %q", got)
	}
	if got := c.cmd("SKETCH.QUERY flows %d", 1_000_000+wantKeys-1); got != ":1" {
		t.Fatalf("QUERY last = %q", got)
	}
	metrics := scrape(t, s)
	if !strings.Contains(metrics, fmt.Sprintf("she_inserts_total %d", wantKeys)) {
		t.Fatalf("she_inserts_total != %d in metrics:\n%s", wantKeys, grepLines(metrics, "she_inserts_total"))
	}
	if !strings.Contains(metrics, fmt.Sprintf("she_batch_keys_total %d", wantKeys)) {
		t.Fatalf("she_batch_keys_total != %d:\n%s", wantKeys, grepLines(metrics, "she_batch"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestMinsertReplication: the insert records of MINSERTs stream to an attached
// follower and apply there, and a replica refuses direct MINSERTs the
// same way it refuses other writes.
func TestMinsertReplication(t *testing.T) {
	primary := startServer(t, server.Config{WALDir: t.TempDir()})
	pc := dial(t, primary.Addr().String())
	if got := pc.cmd("SKETCH.CREATE flows bloom bits=65536 window=65536 shards=2"); got != "+OK" {
		t.Fatalf("CREATE = %q", got)
	}

	replica := startServer(t, server.Config{
		WALDir:    t.TempDir(),
		ReplicaOf: primary.Addr().String(),
	})
	rc := dial(t, replica.Addr().String())
	waitUntil(t, "full sync", func() bool {
		return rc.cmd("SKETCH.QUERY flows probe") == ":0"
	})

	if got := pc.cmd("MINSERT flows 7 8 9 carol"); got != ":4" {
		t.Fatalf("MINSERT on primary = %q", got)
	}
	waitUntil(t, "follower applied the insert record", func() bool {
		return rc.cmd("SKETCH.QUERY flows carol") == ":1"
	})
	for _, key := range []string{"7", "8", "9"} {
		if got := rc.cmd("SKETCH.QUERY flows %s", key); got != ":1" {
			t.Errorf("follower QUERY %s = %q", key, got)
		}
	}
	if got := rc.cmd("MINSERT flows 10"); !strings.HasPrefix(got, "-ERR READONLY") {
		t.Fatalf("MINSERT on replica = %q, want READONLY refusal", got)
	}
}
