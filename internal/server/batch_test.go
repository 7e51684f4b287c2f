package server

// Batch-engine tests: MINSERT on the wire; connBatch and tryFast driven
// directly (the allocation proof); the fast tokenizer against the slow
// parser token by token (the equivalence fuzz); and the replay of MINSERT
// records after a crash.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"she"
	"she/internal/audit"
	"she/internal/failfs"
)

// TestMinsertBasic pins the MINSERT wire semantics: one reply counting
// the batch's keys, slow-path-identical errors for the malformed
// shapes, and key tokens that agree with SKETCH.INSERT (decimal keys
// map to themselves, anything else hashes the same way).
func TestMinsertBasic(t *testing.T) {
	s := startServer(t, Config{})
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
	s := startServer(t, Config{})
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
	if got := c.cmd("%s", line(MaxArgs-2)); got != fmt.Sprintf(":%d", MaxArgs-2) {
		t.Fatalf("MINSERT %d keys = %q", MaxArgs-2, got)
	}
	if got := c.cmd("%s", line(MaxArgs-1)); !strings.HasPrefix(got, "-ERR too many arguments") {
		t.Fatalf("MINSERT %d keys = %q, want too-many-arguments", MaxArgs-1, got)
	}
}

// TestMinsertPipelineStraddle pushes enough pipelined MINSERT lines in
// single writes that batches repeatedly straddle the server's read
// buffer: a refill mid-pipeline is a batch drain point, so the engine
// applies and commits partial batches and keeps going. Every line must
// be acked with its own count, and the totals must add up.
func TestMinsertPipelineStraddle(t *testing.T) {
	s := startServer(t, Config{DebugListen: "127.0.0.1:0"})
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
	primary := startServer(t, Config{WALDir: t.TempDir()})
	pc := dial(t, primary.Addr().String())
	if got := pc.cmd("SKETCH.CREATE flows bloom bits=65536 window=65536 shards=2"); got != "+OK" {
		t.Fatalf("CREATE = %q", got)
	}

	replica := startServer(t, Config{
		WALDir:    t.TempDir(),
		ReplicaOf: primary.Addr().String(),
	})
	rc := dial(t, replica.Addr().String())
	eventually(t, "full sync", func() bool {
		return rc.cmd("SKETCH.QUERY flows probe") == ":0"
	})

	if got := pc.cmd("MINSERT flows 7 8 9 carol"); got != ":4" {
		t.Fatalf("MINSERT on primary = %q", got)
	}
	eventually(t, "follower applied the insert record", func() bool {
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

// mustSketch builds a small bloom sketch and registers it.
func mustSketch(t *testing.T, s *Server, name string) *Sketch {
	t.Helper()
	sk, err := NewSketch("bloom", map[string]string{
		"bits": "1048576", "window": "1048576", "shards": "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	s.reg.Put(name, sk)
	return sk
}

// TestInsertDispatchZeroAlloc pins the batch engine's core promise:
// after warm-up, handling an insert line allocates nothing — not in
// the tokenizer, not in key parsing, not in the reply render, and not
// in the WAL record build or batched append.
func TestInsertDispatchZeroAlloc(t *testing.T) {
	run := func(t *testing.T, cfg Config) float64 {
		t.Helper()
		s := startServer(t, cfg)
		mustSketch(t, s, "b")

		// A disarmed barrier: commit-time sync is not the dispatch path.
		batch := &connBatch{s: s, bw: &syncWriter{s: s}}
		w := bufio.NewWriterSize(io.Discard, 32*1024)
		var sb strings.Builder
		sb.WriteString("MINSERT b")
		for i := 0; i < 64; i++ {
			fmt.Fprintf(&sb, " %d", 1_000_000+i)
		}
		line := []byte(sb.String())

		return testing.AllocsPerRun(200, func() {
			handled, vi, err := batch.tryFast(line, w)
			if !handled || vi != verbMinsert || err != nil {
				t.Fatalf("tryFast = %v, %d, %v", handled, vi, err)
			}
			if err := batch.apply(); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("nowal", func(t *testing.T) {
		if allocs := run(t, Config{}); allocs != 0 {
			t.Fatalf("allocs/op = %g, want 0", allocs)
		}
	})
	t.Run("wal", func(t *testing.T) {
		if allocs := run(t, Config{WALDir: t.TempDir()}); allocs != 0 {
			t.Fatalf("allocs/op = %g, want 0", allocs)
		}
	})
}

// TestQueryDispatchZeroAlloc is the same promise for the read verbs: a
// SKETCH.QUERY or SKETCH.CARD line is tokenized, looked up, answered
// and its reply rendered without an allocation, and so is the settle
// at the drain that follows.
func TestQueryDispatchZeroAlloc(t *testing.T) {
	s := New(Config{})
	for name, kind := range map[string]string{"b": "bloom", "c": "cm", "h": "hll"} {
		if err := s.reg.Create(name, kind, map[string]string{"window": "4096", "shards": "4"}); err != nil {
			t.Fatal(err)
		}
		sk, _ := s.reg.Get(name)
		for k := uint64(0); k < 3000; k++ {
			sk.Insert(k)
		}
	}
	batch := &connBatch{s: s}
	w := bufio.NewWriterSize(io.Discard, 32*1024)
	for _, tc := range []struct {
		line string
		vi   int
	}{
		{"SKETCH.QUERY b 2999", verbQuery},
		{"sketch.query c not-a-number", verbQuery},
		{"SKETCH.CARD h", verbCard},
	} {
		line := []byte(tc.line)
		allocs := testing.AllocsPerRun(200, func() {
			handled, vi, err := batch.tryFast(line, w)
			if !handled || vi != tc.vi || err != nil {
				t.Fatalf("tryFast(%q) = %v, %d, %v", tc.line, handled, vi, err)
			}
			if err := batch.apply(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: allocs/op = %g, want 0", tc.line, allocs)
		}
	}
}

// diffNode is one side of the fast-versus-slow comparison: an unstarted
// server holding small sketches of every kind, filled from a fixed
// stream, plus what handleConn keeps per connection.
type diffNode struct {
	*conn
	out bytes.Buffer
}

func newDiffNode(t testing.TB) *diffNode {
	s := New(Config{})
	rng := rand.New(rand.NewSource(7))
	for _, sp := range []struct{ name, kind string }{{"b", "bloom"}, {"c", "cm"}, {"h", "hll"}} {
		if err := s.reg.Create(sp.name, sp.kind, map[string]string{"window": "256", "shards": "2"}); err != nil {
			t.Fatal(err)
		}
		sk, _ := s.reg.Get(sp.name)
		for i := 0; i < 600; i++ {
			sk.Insert(uint64(rng.Intn(400)))
		}
	}
	n := &diffNode{}
	n.conn = &conn{s: s, batch: connBatch{s: s},
		r: bufio.NewReader(strings.NewReader("")), w: bufio.NewWriter(&n.out), bw: &syncWriter{s: s}}
	return n
}

// state is everything a command may leave behind that a client or an
// operator can see: the reply bytes, the command and insert counters,
// the per-verb latency counts and every sketch, serialized.
func (n *diffNode) state(t testing.TB) string {
	n.w.Flush()
	n.lats.flush(n.s)
	var sb strings.Builder
	fmt.Fprintf(&sb, "reply %q\ncommands_total %d inserts_total %d errors_total %d\n",
		n.out.String(), n.s.ctr.Commands.Value(), n.s.ctr.Inserts.Value(), n.s.ctr.Errors.Value())
	for i := range verbs {
		if c := n.s.verbHist[i].Snapshot().Count; c > 0 {
			fmt.Fprintf(&sb, "she_command_seconds{%s} %d\n", verbs[i].name, c)
		}
	}
	for _, in := range n.s.reg.List() {
		data, err := in.Sketch.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s inserts=%d %x\n", in.Name, in.Sketch.Inserts(), data)
	}
	return sb.String()
}

// FuzzFastParseEquivalence feeds arbitrary line bytes to the fast path
// and, whenever it claims the line, cross-checks every decision against
// the slow path, which stays the reference for semantics: the scanner
// held to ParseCommand's tokens and ParseKey's keys (checkScan), no line
// the slow path rejects accepted fast — and, run as handleConn runs
// them on two
// identical servers, the same reply bytes, the same commands_total and
// per-verb latency count, and the same sketches afterwards.
func FuzzFastParseEquivalence(f *testing.F) {
	f.Add([]byte("MINSERT flows 1 2 3"))
	f.Add([]byte("sketch.insert flows 18446744073709551615 18446744073709551616"))
	f.Add([]byte("MINSERT  flows\talice\vbob\fcarol\r"))
	f.Add([]byte("MINSERT flows \x01"))
	f.Add([]byte("MINSERT flows caf\xc3\xa9"))
	f.Add([]byte(strings.Repeat(" 7", MaxArgs+2)))
	f.Add([]byte("SKETCH.QUERY b 17"))
	f.Add([]byte("SKETCH.QUERY c 17"))
	f.Add([]byte("SKETCH.QUERY h 17"))
	f.Add([]byte("SKETCH.QUERY b alice"))
	f.Add([]byte("SKETCH.CARD h"))
	f.Add([]byte("SKETCH.CARD b"))
	f.Add([]byte("SKETCH.QUERY b"))
	f.Add([]byte("SKETCH.QUERY b 1 2"))
	f.Add([]byte("SKETCH.CARD"))
	f.Add([]byte("SKETCH.CARD h h"))
	f.Add([]byte("SKETCH.QUERY nosuch 1"))
	f.Add([]byte("SKETCH.CARD nosuch"))
	f.Add([]byte("sKeTcH.qUeRy c 18446744073709551616"))
	f.Add([]byte("Sketch.Card\th\r"))
	f.Add([]byte("\tSKETCH.QUERY\t\tb\t399\r"))
	f.Add([]byte("SKETCH.INSERT c 5 5 5"))
	f.Add([]byte("MINSERT h 1 2 3 4"))
	f.Add([]byte("SKETCH.QUERY b caf\xc3\xa9"))
	for i, tok := range scanEdgeTokens {
		f.Add([]byte("MINSERT b 12345" + strings.Repeat(" ", 1+i%8) + tok))
		f.Add([]byte("sketch.query c\t" + tok + "\r"))
	}
	for i, run := range scanLongRuns {
		f.Add([]byte("MINSERT b" + strings.Repeat(" ", 1+i%8) + run))
		f.Add([]byte("MINSERT b " + run + " 1234567"))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if len(line) > MaxLineBytes {
			return
		}
		verb, ok := checkScan(t, line)
		if !ok {
			return // fast path declined; the slow path owns the line
		}
		cmd, err := ParseCommand(string(line))
		if err != nil || cmd.Name != verb {
			t.Fatalf("ScanLine read %q as %s, ParseCommand as %s, %v", line, verb, cmd.Name, err)
		}

		fast := newDiffNode(t)
		handled, vi, err := fast.batch.tryFast(line, fast.w)
		if err != nil {
			t.Fatalf("tryFast(%q): %v", line, err)
		}
		if !handled {
			return
		}
		if err := fast.batch.apply(); err != nil {
			t.Fatal(err)
		}
		fast.observe(vi, line, 0)

		slow := newDiffNode(t)
		vi = lookupVerb(cmd.Name)
		if slow.dispatch(&verbs[vi], cmd); slow.quit {
			t.Fatalf("the fast path claimed %q, which closes the connection", line)
		}
		slow.observe(vi, line, 0)

		if got, want := fast.state(t), slow.state(t); got != want {
			t.Fatalf("line %q\nfast path left\n%s\nslow path left\n%s", line, got, want)
		}
		if fast.s.ctr.Errors.Value() != 0 || fast.out.Bytes()[0] == '-' {
			t.Fatalf("the fast path rendered an error for %q: %q", line, fast.out.String())
		}
	})
}

// TestMinsertWALReplay: MINSERT batches survive a simulated kill -9
// purely via their WAL records — the recovery path decodes the insert
// records the batch engine logs.
func TestMinsertWALReplay(t *testing.T) {
	dir := t.TempDir()
	s1 := startWAL(t, dir, nil, 0)
	c := dial(t, s1.Addr().String())
	c.must("SKETCH.CREATE flows bloom bits=65536 window=65536 shards=2", "+OK")
	// Three pipelined batch shapes: a multi-key MINSERT, a full
	// 127-key command, and 160 keys for one sketch across two commands.
	c.must("MINSERT flows 10 11 12", ":3")
	var sb strings.Builder
	sb.WriteString("MINSERT flows")
	for i := 0; i < 127; i++ {
		fmt.Fprintf(&sb, " %d", 1000+i)
	}
	c.must(sb.String(), ":127")
	// Two pipelined commands land in one batch, so the sketch's group
	// accumulates 160 keys — more than one command line can carry — and
	// the apply logs them as one insert record.
	sb.Reset()
	sb.WriteString("MINSERT flows")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, " %d", 2000+i)
	}
	sb.WriteString("\nMINSERT flows")
	for i := 100; i < 160; i++ {
		fmt.Fprintf(&sb, " %d", 2000+i)
	}
	sb.WriteString("\n")
	if _, err := io.WriteString(c.conn, sb.String()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{":100", ":60"} {
		line, err := c.r.ReadString('\n')
		if err != nil || strings.TrimSpace(line) != want {
			t.Fatalf("pipelined reply = %q, %v, want %s", line, err, want)
		}
	}
	c.must("MINSERT flows hashed-key-a hashed-key-b", ":2")
	s1.Abort()

	s2 := startWAL(t, dir, nil, 0)
	c2 := dial(t, s2.Addr().String())
	for _, key := range []string{"10", "11", "12", "1000", "1126", "2000", "2099", "2100", "2159", "hashed-key-a", "hashed-key-b"} {
		c2.must("SKETCH.QUERY flows "+key, ":1")
	}
	c2.must("SKETCH.QUERY flows 999999", ":0")
	if got := s2.Counters()["wal_replay_skipped"]; got != 0 {
		t.Fatalf("wal_replay_skipped = %d, want 0", got)
	}
}

// TestBatchAckWithheldOnSyncFailure guards the ack-after-durability
// invariant under deep pipelining: a pipelined run of inserts whose
// buffered replies overflow the 32KiB reply buffer would auto-flush
// mid-batch, and with the batch's fsync failing, not one optimistic
// ":n" reply may reach the client — the syncWriter barrier turns the
// flush into the error instead.
func TestBatchAckWithheldOnSyncFailure(t *testing.T) {
	// With reads interleaved the same holds for their replies: each
	// follows an insert whose fsync fails, so it may not escape either.
	for name, format := range map[string]string{
		"inserts":         "SKETCH.INSERT d %d\n",
		"inserts+queries": "SKETCH.INSERT d %[1]d\nSKETCH.QUERY d %[1]d\n",
		"inserts+cards":   "SKETCH.INSERT h %d\nSKETCH.CARD h\n",
	} {
		t.Run(name, func(t *testing.T) {
			fault := failfs.NewFault(failfs.OS{})
			s := startWAL(t, t.TempDir(), fault, 0)
			c := dial(t, s.Addr().String())
			c.must("SKETCH.CREATE d bloom bits=65536 window=65536 shards=2", "+OK")
			c.must("SKETCH.CREATE h hll registers=64 window=65536 shards=2", "+OK")

			// Every Sync from here on fails; the WAL is then sticky-failed.
			fault.FailSyncs(1 << 30)
			const lines = 16384 // 16384 * len(":1\n") = 48KiB of replies, past the 32KiB reply buffer
			var sb strings.Builder
			for i := 0; i < lines; i++ {
				fmt.Fprintf(&sb, format, i)
			}
			// The write itself may fail partway: the server kills the
			// connection at the first failed flush, possibly while we are
			// still sending. That is fine — the invariant under test is only
			// that nothing it DID send back is an ack or an answer.
			io.WriteString(c.conn, sb.String())
			for {
				line, err := c.r.ReadString('\n')
				if strings.HasPrefix(line, ":") || strings.HasPrefix(line, "+") {
					t.Fatalf("reply %q escaped before durability", strings.TrimSpace(line))
				}
				if err != nil {
					break // connection closed after the error, as commit promises
				}
				if strings.HasPrefix(line, "-ERR") {
					break
				}
			}
		})
	}
}

// TestReadYourWritesAcrossReadBoundary: SKETCH.INSERT b k immediately
// followed by SKETCH.QUERY b k in one write answers :1 wherever the
// pair falls against the 64 KiB read buffer — the insert in one fill
// and the query in the next, either line cut in two, or both in one.
// The connection is a net.Pipe, whose reads return exactly what the
// buffer has room for, so every offset is hit deterministically.
func TestReadYourWritesAcrossReadBoundary(t *testing.T) {
	s := startServer(t, Config{})
	mustSketch(t, s, "b")

	const pad = "PING\n"
	for off := 0; ; off++ {
		pair := fmt.Sprintf("SKETCH.INSERT b %d\nSKETCH.QUERY b %[1]d\n", 7_000_000+off)
		if off > len(pair) {
			break
		}
		// The first fill ends off bytes into the pair.
		head := MaxLineBytes - off
		pings := head / len(pad)
		input := strings.Repeat(pad, pings-1) + strings.Repeat(" ", head-pings*len(pad)) + pad + pair

		client, srv := net.Pipe()
		s.wg.Add(1)
		go s.handleConn(srv)
		go io.WriteString(client, input)
		r := bufio.NewReader(client)
		for i := 0; i < pings+2; i++ {
			want := "+PONG\n"
			if i >= pings {
				want = ":1\n"
			}
			if got, err := r.ReadString('\n'); got != want || err != nil {
				t.Fatalf("offset %d, reply %d = %q, %v, want %q", off, i, got, err, want)
			}
		}
		client.Close()
	}
}

// TestSketchInsertBatchMatchesInsert holds Sketch.InsertBatch to the
// per-key Insert it replaced in the server's insert paths: the same
// stream, cut into random batches, must leave a byte-identical snapshot
// — and, with an auditor attached, identical audit statistics, which
// only holds if every sampled key was observed by a sketch that had
// absorbed exactly the keys up to it (frequency and membership probes
// read the live sketch).
func TestSketchInsertBatchMatchesInsert(t *testing.T) {
	for _, p := range []float64{0, 0.2, 1} {
		for _, kind := range []string{"bloom", "cm", "hll"} {
			reg := NewRegistry(audit.Config{SampleProb: p, Seed: 11})
			for _, name := range []string{"one", "batched"} {
				if err := reg.Create(name, kind, map[string]string{"window": "2048", "shards": "4"}); err != nil {
					t.Fatal(err)
				}
			}
			one, _ := reg.Get("one")
			batched, _ := reg.Get("batched")
			rng := rand.New(rand.NewSource(5))
			var sc she.BatchScratch
			buf := make([]uint64, 0, 200)
			for sent := 0; sent < 9000; sent += len(buf) {
				buf = buf[:rng.Intn(cap(buf)+1)]
				for i := range buf {
					buf[i] = uint64(rng.Intn(700))
					one.Insert(buf[i])
				}
				batched.InsertBatch(buf, &sc)
			}
			a, err := one.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b, err := batched.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s p=%g: InsertBatch left a different sketch than per-key Insert", kind, p)
			}
			if p > 0 {
				if x, y := one.Audit().Snapshot(), batched.Audit().Snapshot(); !reflect.DeepEqual(x, y) {
					t.Errorf("%s p=%g: audit statistics differ:\n per key %+v\n batched %+v", kind, p, x, y)
				}
				if one.Audit().Snapshot().Observations == 0 {
					t.Errorf("%s p=%g: nothing was audited", kind, p)
				}
			}
		}
	}
}

// TestBatchCapMidPipeline: one read buffer holding more pending keys than
// batchMaxKeys forces an apply in the middle of the pipeline — the keys
// reach their sketch and the log, the replies stay buffered in request
// order — and nothing of it is acknowledged before the fsync at the
// drain: with that fsync failing, the client sees one error line and not
// one ":n". The connection is a net.Pipe, so the whole pipeline arrives
// in one read.
func TestBatchCapMidPipeline(t *testing.T) {
	const lines, perLine = 200, MaxArgs - 2
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		sb.WriteString("MINSERT b" + strings.Repeat(" 7", perLine) + "\n")
	}
	if sb.Len() > MaxLineBytes || lines*perLine <= batchMaxKeys {
		t.Fatalf("%d bytes, %d keys: want one read buffer over the cap", sb.Len(), lines*perLine)
	}
	for _, failSync := range []bool{false, true} {
		t.Run(fmt.Sprintf("failSync=%v", failSync), func(t *testing.T) {
			fault := failfs.NewFault(failfs.OS{})
			s := startWAL(t, t.TempDir(), fault, 0)
			sk := mustSketch(t, s, "b")
			if failSync {
				fault.FailSyncs(1 << 30)
			}
			client, srv := net.Pipe()
			defer client.Close()
			s.wg.Add(1)
			go s.handleConn(srv)
			go io.WriteString(client, sb.String())
			r := bufio.NewReader(client)
			client.SetReadDeadline(time.Now().Add(10 * time.Second))
			for i := 0; i < lines && !failSync; i++ {
				if got, err := r.ReadString('\n'); got != fmt.Sprintf(":%d\n", perLine) || err != nil {
					t.Fatalf("reply %d = %q, %v", i, got, err)
				}
			}
			if failSync {
				if got, _ := r.ReadString('\n'); !strings.HasPrefix(got, "-ERR wal sync failed") {
					t.Fatalf("with the fsync failing the client read %q, want the one error line", got)
				}
				if got, err := r.ReadString('\n'); err == nil {
					t.Fatalf("%q followed the error line", got)
				}
			}
			// Line 131 finds 130 lines' keys pending, at the cap: they are
			// applied there, the other 70 lines' at the drain.
			if got := s.ctr.BatchApplies.Value(); got != 2 {
				t.Errorf("batch_applies_total = %d, want 2: one forced at the cap, one at the drain", got)
			}
			if got, want := sk.Inserts(), uint64(lines*perLine); got != want || s.ctr.BatchKeys.Value() != int64(want) {
				t.Errorf("sketch holds %d inserts, batch_keys_total = %d, want %d", got, s.ctr.BatchKeys.Value(), want)
			}
		})
	}
}
