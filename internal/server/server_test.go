package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"she/internal/failfs"
)

// The harness every test of the package starts from: one node starter,
// one protocol client, one poll loop, one HTTP getter.

// startServer starts a node on cfg, on a free loopback port unless cfg
// names one, and kills it when the test ends. The kill is Abort, which
// writes nothing: a test that crashes a WAL node and restarts on its
// directory leaves the directory to the restarted node.
func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Abort)
	return s
}

// startWAL starts a node logging to dir through fsys (nil: the real
// filesystem), checkpointing every chkBytes (0: the default).
func startWAL(t testing.TB, dir string, fsys failfs.FS, chkBytes int64) *Server {
	return startServer(t, Config{WALDir: dir, CheckpointBytes: chkBytes, FS: fsys})
}

// startFollower starts a replica of primary with its own WAL in dir.
func startFollower(t testing.TB, dir string, primary *Server, chkBytes int64) *Server {
	return startServer(t, Config{WALDir: dir, CheckpointBytes: chkBytes,
		ReplicaOf: primary.Addr().String(), ReplRetryInterval: 10 * time.Millisecond})
}

// eventually polls cond for up to 10 s: replication, reaping and
// sampling are asynchronous, so an assertion about them settles first.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fetch GETs url and returns the body.
func fetch(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

// scrape returns s's /metrics exposition.
func scrape(t *testing.T, s *Server) string {
	body, _ := fetch(t, "http://"+s.DebugAddr().String()+"/metrics")
	return body
}

// client is a test protocol client: one command out, one reply line
// back.
type client struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{t: t, conn: conn, r: bufio.NewReader(conn)}
}

// try sends one command and returns its reply line; ok=false means the
// connection died before a reply arrived, which is never an ack.
func (c *client) try(cmd string) (string, bool) {
	if _, err := fmt.Fprintf(c.conn, "%s\n", cmd); err != nil {
		return "", false
	}
	return c.line()
}

// line reads one reply line; ok=false means the connection died or sent
// nothing for 10 s, so a node that stops answering fails one test
// instead of hanging the package.
func (c *client) line() (string, bool) {
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer c.conn.SetReadDeadline(time.Time{})
	line, err := c.r.ReadString('\n')
	return strings.TrimRight(line, "\r\n"), err == nil
}

// must sends one command and fails the test unless the reply is want.
func (c *client) must(cmd, want string) {
	c.t.Helper()
	if reply, ok := c.try(cmd); !ok || reply != want {
		c.t.Fatalf("%s = %q (ok=%v), want %q", cmd, reply, ok, want)
	}
}

func (c *client) send(format string, args ...any) {
	c.t.Helper()
	if _, err := fmt.Fprintf(c.conn, format+"\n", args...); err != nil {
		c.t.Fatalf("send: %v", err)
	}
}

func (c *client) recv() string {
	c.t.Helper()
	line, ok := c.line()
	if !ok {
		c.t.Fatalf("recv: connection closed or silent (got %q)", line)
	}
	return line
}

// cmd sends one command and returns its one-line reply.
func (c *client) cmd(format string, args ...any) string {
	c.t.Helper()
	c.send(format, args...)
	return c.recv()
}

// array sends one command and returns the starred-array payload lines.
func (c *client) array(format string, args ...any) []string {
	c.t.Helper()
	head := c.cmd(format, args...)
	var n int
	if _, err := fmt.Sscanf(head, "*%d", &n); err != nil {
		c.t.Fatalf("want array header, got %q", head)
	}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = strings.TrimPrefix(c.recv(), "+")
	}
	return lines
}

func TestPingInfoList(t *testing.T) {
	s := startServer(t, Config{})
	c := dial(t, s.Addr().String())
	if got := c.cmd("PING"); got != "+PONG" {
		t.Fatalf("PING = %q", got)
	}
	if got := c.cmd("ping"); got != "+PONG" {
		t.Fatalf("lower-case ping = %q", got)
	}
	if got := c.cmd("SKETCH.CREATE flows bloom bits=65536 window=4096 shards=4"); got != "+OK" {
		t.Fatalf("CREATE = %q", got)
	}
	info := c.array("INFO")
	joined := strings.Join(info, "\n")
	for _, want := range []string{"uptime_seconds=", "sketches=1", "commands_total=", "connections_active="} {
		if !strings.Contains(joined, want) {
			t.Errorf("INFO missing %q:\n%s", want, joined)
		}
	}
	list := c.array("SKETCH.LIST")
	if len(list) != 1 || !strings.HasPrefix(list[0], "flows kind=bloom shards=4") {
		t.Fatalf("LIST = %v", list)
	}
}

func TestInsertQueryAllKinds(t *testing.T) {
	s := startServer(t, Config{})
	c := dial(t, s.Addr().String())

	// bloom: inserted keys answer :1, fresh keys :0 (filter is large
	// enough that false positives are essentially impossible here).
	c.cmd("SKETCH.CREATE b bloom bits=1048576 window=65536 shards=4")
	if got := c.cmd("SKETCH.INSERT b alice bob 42"); got != ":3" {
		t.Fatalf("INSERT = %q", got)
	}
	for key, want := range map[string]string{"alice": ":1", "bob": ":1", "42": ":1", "carol": ":0"} {
		if got := c.cmd("SKETCH.QUERY b %s", key); got != want {
			t.Errorf("QUERY b %s = %q, want %q", key, got, want)
		}
	}

	// cm: frequency never underestimates within the window.
	c.cmd("SKETCH.CREATE f cm counters=65536 window=65536 shards=4")
	for i := 0; i < 10; i++ {
		c.cmd("SKETCH.INSERT f hot")
	}
	var freq int
	if _, err := fmt.Sscanf(c.cmd("SKETCH.QUERY f hot"), ":%d", &freq); err != nil || freq < 10 {
		t.Fatalf("QUERY f hot = %d, want >= 10", freq)
	}

	// hll: cardinality lands near the true distinct count.
	c.cmd("SKETCH.CREATE d hll registers=4096 window=65536 shards=4")
	for i := 0; i < 5000; i += 100 { // batch inserts, 100 keys per command
		keys := make([]string, 100)
		for j := range keys {
			keys[j] = fmt.Sprint(i + j)
		}
		c.cmd("SKETCH.INSERT d " + strings.Join(keys, " "))
	}
	var card float64
	if _, err := fmt.Sscanf(c.cmd("SKETCH.CARD d"), "+%f", &card); err != nil {
		t.Fatal(err)
	}
	if card < 3500 || card > 6500 {
		t.Fatalf("CARD d = %.1f, want ≈5000", card)
	}
}

func TestAbruptDisconnectAndOversizedLine(t *testing.T) {
	s := startServer(t, Config{})

	// Half a command, then slam the connection shut.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(conn, "SKETCH.INSERT partial")
	conn.Close()

	// A line the reader can never terminate: error reply, then close.
	c := dial(t, s.Addr().String())
	huge := strings.Repeat("a", MaxLineBytes+2)
	if _, err := io.WriteString(c.conn, huge); err != nil {
		t.Fatal(err)
	}
	reply, err := c.r.ReadString('\n')
	if err != nil || !strings.Contains(reply, "line too long") {
		t.Fatalf("oversized line reply = %q, %v", reply, err)
	}
	// EOF or ECONNRESET both prove the server closed the connection
	// (reset happens when our unread trailing bytes were discarded).
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection should close after oversized line")
	}

	// The server is still healthy for everyone else.
	c2 := dial(t, s.Addr().String())
	if got := c2.cmd("PING"); got != "+PONG" {
		t.Fatalf("PING after abuse = %q", got)
	}
}

// TestConcurrentClients is the multi-client integration test: 8
// goroutines hammer one sharded sketch through separate connections;
// run under -race this is the server's data-race check.
func TestConcurrentClients(t *testing.T) {
	s := startServer(t, Config{})
	admin := dial(t, s.Addr().String())
	if got := admin.cmd("SKETCH.CREATE shared cm counters=262144 window=1048576 shards=8"); got != "+OK" {
		t.Fatalf("CREATE = %q", got)
	}

	const clients, repeats = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			do := func(format string, args ...any) (string, error) {
				if _, err := fmt.Fprintf(conn, format+"\n", args...); err != nil {
					return "", err
				}
				line, err := r.ReadString('\n')
				return strings.TrimRight(line, "\n"), err
			}
			key := fmt.Sprintf("client%d", g)
			for i := 0; i < repeats; i++ {
				if got, err := do("SKETCH.INSERT shared %s", key); err != nil || got != ":1" {
					errs <- fmt.Errorf("client %d: INSERT = %q, %v", g, got, err)
					return
				}
			}
			got, err := do("SKETCH.QUERY shared %s", key)
			if err != nil {
				errs <- err
				return
			}
			var freq int
			if _, err := fmt.Sscanf(got, ":%d", &freq); err != nil || freq < repeats {
				errs <- fmt.Errorf("client %d: frequency %q, want >= %d", g, got, repeats)
				return
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	list := admin.array("SKETCH.LIST")
	if len(list) != 1 || !strings.Contains(list[0], fmt.Sprintf("inserts=%d", clients*repeats)) {
		t.Fatalf("LIST after concurrent inserts = %v, want inserts=%d", list, clients*repeats)
	}
}

// TestSaveLoadRoundTrip checks the acceptance criterion: a sketch
// saved over the wire restores with identical query answers. Snapshots
// live in the server's snapshot directory under client-chosen bare
// names — clients never supply paths.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{SnapshotDir: dir})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE orig cm counters=65536 window=65536 shards=4")
	for i := 0; i < 500; i++ {
		c.cmd("SKETCH.INSERT orig key%d", i%50)
	}
	if got := c.cmd("SKETCH.SAVE orig"); got != "+OK" {
		t.Fatalf("SAVE = %q", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "orig.she")); err != nil {
		t.Fatalf("snapshot not in snapshot dir: %v", err)
	}
	if got := c.cmd("SKETCH.LOAD copy orig"); got != "+OK" {
		t.Fatalf("LOAD = %q", got)
	}
	for i := 0; i < 80; i++ {
		orig := c.cmd("SKETCH.QUERY orig key%d", i)
		copy := c.cmd("SKETCH.QUERY copy key%d", i)
		if orig != copy {
			t.Fatalf("key%d: original answers %q, restored copy answers %q", i, orig, copy)
		}
	}
	// The insert counter survives the round trip.
	for _, line := range c.array("SKETCH.LIST") {
		if strings.HasPrefix(line, "copy ") && !strings.Contains(line, "inserts=500") {
			t.Fatalf("restored copy lost its insert counter: %q", line)
		}
	}
	// Same round trip for a bloom filter, with an explicit file name.
	c.cmd("SKETCH.CREATE bf bloom bits=262144 window=16384 shards=4")
	c.cmd("SKETCH.INSERT bf alice bob carol")
	c.cmd("SKETCH.SAVE bf bfsnap")
	c.cmd("SKETCH.LOAD bf2 bfsnap")
	for _, key := range []string{"alice", "bob", "carol", "dave", "99"} {
		if a, b := c.cmd("SKETCH.QUERY bf %s", key), c.cmd("SKETCH.QUERY bf2 %s", key); a != b {
			t.Fatalf("bloom key %s: %q vs %q", key, a, b)
		}
	}
	if got := c.cmd("SKETCH.DROP copy"); got != "+OK" {
		t.Fatalf("DROP = %q", got)
	}
}

// TestSaveLoadConfinement proves the REVIEW.md fix: SAVE/LOAD reject
// anything that is not a bare file name, so clients cannot read or
// write arbitrary server paths.
func TestSaveLoadConfinement(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{SnapshotDir: dir})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE sk bloom bits=65536 window=4096")
	for _, tt := range []struct{ cmd, wantSub string }{
		{"SKETCH.SAVE sk ../evil", "invalid snapshot file"},
		{"SKETCH.SAVE sk /etc/cron.d/evil", "invalid snapshot file"},
		{"SKETCH.SAVE sk ..", "invalid snapshot file"},
		{"SKETCH.LOAD x /etc/passwd", "invalid snapshot file"},
		{"SKETCH.LOAD x ../../etc/passwd", "invalid snapshot file"},
		{"SKETCH.LOAD x missing", "no such file"},
	} {
		got := c.cmd(tt.cmd)
		if !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, tt.wantSub) {
			t.Errorf("%q -> %q, want -ERR containing %q", tt.cmd, got, tt.wantSub)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("snapshot dir polluted: %v, %v", entries, err)
	}
}

func TestAutosaveAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := startServer(t, Config{AutosaveDir: dir})
	c := dial(t, s1.Addr().String())
	c.cmd("SKETCH.CREATE persisted bloom bits=262144 window=16384 shards=4")
	c.cmd("SKETCH.INSERT persisted alice bob")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2 := startServer(t, Config{AutosaveDir: dir})
	c2 := dial(t, s2.Addr().String())
	for key, want := range map[string]string{"alice": ":1", "bob": ":1", "carol": ":0"} {
		if got := c2.cmd("SKETCH.QUERY persisted %s", key); got != want {
			t.Errorf("after restart, QUERY persisted %s = %q, want %q", key, got, want)
		}
	}
	// The insert counter survives the restart too.
	list := c2.array("SKETCH.LIST")
	if len(list) != 1 || !strings.Contains(list[0], "inserts=2") {
		t.Fatalf("LIST after restart = %v, want inserts=2", list)
	}
}

// TestMaxConns: connections beyond the cap are rejected with an -ERR
// line, and closing one frees a slot.
func TestMaxConns(t *testing.T) {
	s := startServer(t, Config{MaxConns: 2})
	c1 := dial(t, s.Addr().String())
	c2 := dial(t, s.Addr().String())
	if got := c1.cmd("PING"); got != "+PONG" {
		t.Fatalf("c1 PING = %q", got)
	}
	if got := c2.cmd("PING"); got != "+PONG" {
		t.Fatalf("c2 PING = %q", got)
	}
	c3 := dial(t, s.Addr().String())
	if got := c3.recv(); !strings.Contains(got, "too many connections") {
		t.Fatalf("third connection got %q, want rejection", got)
	}
	if _, err := c3.r.ReadString('\n'); err == nil {
		t.Fatal("rejected connection should be closed")
	}
	// Freeing a slot lets a new client in (the handler releases the
	// slot asynchronously after the close, so poll briefly).
	c1.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "PING\n")
		line, _ := bufio.NewReader(conn).ReadString('\n')
		conn.Close()
		if line == "+PONG\n" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed; last reply %q", line)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIdleTimeout: a connection that goes quiet is reaped.
func TestIdleTimeout(t *testing.T) {
	s := startServer(t, Config{IdleTimeout: 100 * time.Millisecond})
	c := dial(t, s.Addr().String())
	if got := c.cmd("PING"); got != "+PONG" {
		t.Fatalf("PING = %q", got)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.r.ReadString('\n'); err != io.EOF {
		t.Fatalf("idle connection should see EOF, got %v", err)
	}
}

func TestGracefulShutdownClosesClients(t *testing.T) {
	s := startServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Prove the connection is live before shutdown.
	fmt.Fprintf(conn, "PING\n")
	r := bufio.NewReader(conn)
	if line, _ := r.ReadString('\n'); line != "+PONG\n" {
		t.Fatalf("PING = %q", line)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("idle connection should see EOF after shutdown, got %v", err)
	}
	// New connections are refused.
	if c2, err := net.Dial("tcp", s.Addr().String()); err == nil {
		c2.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestDebugVars(t *testing.T) {
	s := startServer(t, Config{DebugListen: "127.0.0.1:0"})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE observed hll registers=4096 window=65536 shards=4")
	c.cmd("SKETCH.INSERT observed a b c")

	resp, err := http.Get("http://" + s.DebugAddr().String() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var vars struct {
		UptimeSeconds float64          `json:"uptime_seconds"`
		Counters      map[string]int64 `json:"counters"`
		Sketches      map[string]struct {
			Kind    string `json:"kind"`
			Shards  int    `json:"shards"`
			Inserts uint64 `json:"inserts"`
		} `json:"sketches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Counters["commands_total"] < 2 || vars.Counters["connections_total"] < 1 {
		t.Fatalf("counters = %v", vars.Counters)
	}
	sk, ok := vars.Sketches["observed"]
	if !ok || sk.Kind != "hll" || sk.Shards != 4 || sk.Inserts != 3 {
		t.Fatalf("sketches = %+v", vars.Sketches)
	}
}

// TestLargeReplyAfterIdleKeepsConnection pins the write deadline to the
// socket write: a reply larger than the 32 KiB reply buffer spills to
// the socket from inside the handler, before any flush, and used to go
// out under the deadline the connection's previous flush had armed — on
// a connection idle for longer than the write timeout, one already in
// the past, which cut the reply off and dropped the connection.
func TestLargeReplyAfterIdleKeepsConnection(t *testing.T) {
	s := startServer(t, Config{WriteTimeout: 150 * time.Millisecond, TraceSample: 1})
	c := dial(t, s.Addr().String())
	for i := 0; i < 300; i++ { // every command leaves a retained trace
		if got := c.cmd("PING"); got != "+PONG" {
			t.Fatalf("PING: %q", got)
		}
	}
	time.Sleep(400 * time.Millisecond) // idle past the write timeout
	size := 0
	for _, line := range c.array("TRACE GET") {
		size += len(line) + 2
	}
	if size <= 32*1024 {
		t.Fatalf("TRACE GET reply is %d bytes; the test needs one larger than the 32 KiB reply buffer", size)
	}
	if got := c.cmd("PING"); got != "+PONG" {
		t.Fatalf("connection did not survive the large reply: %q", got)
	}
}
