package repl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"she/internal/wal"
)

// memTarget records everything a follower applies; memState is the
// lock-free copy its snapshot method hands to assertions.
type memState struct {
	wiped   int
	aborted int
	files   map[string][]byte
	start   wal.Cursor
	applied []string
	tids    []uint64 // trace ID observed per applied record (0 = none)
	bursts  []int    // records per ApplyBurst call
}

// memTarget fails the burst at the first record equal to failOn: the
// records before it stay applied, as on a server.
type memTarget struct {
	mu sync.Mutex
	memState
	failOn string
}

func newMemTarget() *memTarget {
	return &memTarget{memState: memState{files: make(map[string][]byte)}}
}

func (m *memTarget) BeginFullSync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wiped++
	m.files = make(map[string][]byte)
	m.applied = nil
	m.tids = nil
	return nil
}

func (m *memTarget) SnapshotFile(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = data
	return nil
}

func (m *memTarget) EndFullSync(start wal.Cursor) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.start = start
	return nil
}

func (m *memTarget) AbortFullSync() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.aborted++
}

func (m *memTarget) ApplyBurst(recs []Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bursts = append(m.bursts, len(recs))
	for _, rec := range recs {
		if m.failOn != "" && string(rec.Payload) == m.failOn {
			return errors.New("replay rejected")
		}
		m.applied = append(m.applied, string(rec.Payload))
		m.tids = append(m.tids, rec.TraceID)
	}
	return nil
}

func (m *memTarget) snapshot() memState {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := m.memState
	cp.files = make(map[string][]byte, len(m.files))
	cp.applied = append([]string(nil), m.applied...)
	cp.tids = append([]uint64(nil), m.tids...)
	cp.bursts = append([]int(nil), m.bursts...)
	for k, v := range m.files {
		cp.files[k] = v
	}
	return cp
}

// fakePrimary accepts one replication connection and runs script on it.
type fakePrimary struct {
	ln   net.Listener
	errc chan error
}

func startFakePrimary(t *testing.T, script func(r *bufio.Reader, w *bufio.Writer) error) *fakePrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePrimary{ln: ln, errc: make(chan error, 1)}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			p.errc <- err
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		p.errc <- script(bufio.NewReader(conn), bufio.NewWriter(conn))
	}()
	t.Cleanup(func() { ln.Close() })
	return p
}

// handshake consumes PING / REPLCONF / PSYNC and returns the PSYNC args.
func handshake(r *bufio.Reader, w *bufio.Writer) ([]string, error) {
	line, err := readLine(r)
	if err != nil || line != "PING" {
		return nil, fmt.Errorf("want PING, got %q err %v", line, err)
	}
	w.WriteString("+PONG\n")
	w.Flush()
	line, err = readLine(r)
	if err != nil || !strings.HasPrefix(line, "REPLCONF LISTENING-PORT ") {
		return nil, fmt.Errorf("want REPLCONF, got %q err %v", line, err)
	}
	w.WriteString("+OK\n")
	w.Flush()
	line, err = readLine(r)
	if err != nil || !strings.HasPrefix(line, "PSYNC ") {
		return nil, fmt.Errorf("want PSYNC, got %q err %v", line, err)
	}
	return strings.Fields(line)[1:], nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFollowerFullSyncAndStream: a zero-cursor follower handshakes,
// ingests the snapshot files, applies the streamed records, and acks
// the final cursor.
func TestFollowerFullSyncAndStream(t *testing.T) {
	start := wal.Cursor{Gen: 3, Seg: 7, Off: 0}
	rec1End := wal.Cursor{Gen: 3, Seg: 7, Off: 40}
	rec2End := wal.Cursor{Gen: 3, Seg: 7, Off: 80}
	ackc := make(chan wal.Cursor, 8)

	p := startFakePrimary(t, func(r *bufio.Reader, w *bufio.Writer) error {
		args, err := handshake(r, w)
		if err != nil {
			return err
		}
		if len(args) != 1 || args[0] != "?" {
			return fmt.Errorf("want PSYNC ?, got args %v", args)
		}
		fmt.Fprintf(w, "+FULLRESYNC %d %d %d 2\n", start.Gen, start.Seg, start.Off)
		WriteSnapshotFile(w, "pageviews.shsn", []byte("sketch-bytes-1"))
		WriteSnapshotFile(w, "uniques.shsn", []byte("sketch-bytes-2"))
		w.WriteString("ENDSNAP\n")
		w.Flush()
		// The follower acknowledges the start once the snapshot is in.
		if c, _, _, err := ReadAck(r); err != nil || c != start {
			return fmt.Errorf("start ack = %v, %v; want %v", c, err, start)
		}
		WriteRecord(w, rec1End, []byte("I pageviews 1 2"), 0)
		WriteRecord(w, rec2End, []byte("I pageviews 3 4"), 0xfeedface)
		w.Flush()
		for i := 0; i < 2; i++ {
			c, _, _, err := ReadAck(r)
			if err != nil {
				return nil // follower may batch into one ack
			}
			ackc <- c
		}
		return nil
	})

	tgt := newMemTarget()
	f := NewFollower(FollowerConfig{
		PrimaryAddr:   p.ln.Addr().String(),
		ListenPort:    1234,
		RetryInterval: 10 * time.Millisecond,
	}, tgt)
	go f.Run()
	defer f.Stop()

	waitFor(t, "records applied", func() bool { return len(tgt.snapshot().applied) == 2 })
	got := tgt.snapshot()
	if got.wiped != 1 {
		t.Fatalf("BeginFullSync calls = %d, want 1", got.wiped)
	}
	if string(got.files["pageviews.shsn"]) != "sketch-bytes-1" || string(got.files["uniques.shsn"]) != "sketch-bytes-2" {
		t.Fatalf("snapshot files = %v", got.files)
	}
	if got.start != start {
		t.Fatalf("EndFullSync start = %v, want %v", got.start, start)
	}
	if got.applied[0] != "I pageviews 1 2" || got.applied[1] != "I pageviews 3 4" {
		t.Fatalf("applied = %q", got.applied)
	}
	// The five-field record carries no trace ID; the six-field one's
	// hex ID reaches the target.
	if got.tids[0] != 0 || got.tids[1] != 0xfeedface {
		t.Fatalf("apply tids = %x", got.tids)
	}
	// One ack per burst, each for the cursor of its burst's last record;
	// the two records may have come as one burst or as two.
	for c := (wal.Cursor{}); c != rec2End; {
		if c = <-ackc; c.Before(rec1End) {
			t.Fatalf("ack cursor = %v, want >= %v", c, rec1End)
		}
	}

	st := f.Status()
	if !st.Connected || st.FullSyncs != 1 || st.AppliedRecs != 2 || st.Cursor != rec2End {
		t.Fatalf("status = %+v", st)
	}
}

// TestFollowerCutFullSyncAborts: a transfer cut after its first file
// aborts the full sync: the target is told, EndFullSync never runs and
// no full sync is counted.
func TestFollowerCutFullSyncAborts(t *testing.T) {
	p := startFakePrimary(t, func(r *bufio.Reader, w *bufio.Writer) error {
		if _, err := handshake(r, w); err != nil {
			return err
		}
		w.WriteString("+FULLRESYNC 3 7 0 2\n")
		WriteSnapshotFile(w, "pageviews.shsn", []byte("sketch-bytes-1"))
		return w.Flush()
	})
	tgt := newMemTarget()
	f := NewFollower(FollowerConfig{PrimaryAddr: p.ln.Addr().String(), RetryInterval: time.Hour}, tgt)
	go f.Run()
	defer f.Stop()
	waitFor(t, "the cut transfer aborted", func() bool { return tgt.snapshot().aborted == 1 })
	if got := tgt.snapshot(); got.wiped != 1 || !got.start.IsZero() {
		t.Fatalf("BeginFullSync calls = %d, EndFullSync start = %v; want 1 and none", got.wiped, got.start)
	}
	if st := f.Status(); st.FullSyncs != 0 {
		t.Fatalf("status = %+v, want no full sync counted", st)
	}
}

// TestFollowerContinue: a follower with a cursor asks to continue and
// is streamed from there with no snapshot transfer.
func TestFollowerContinue(t *testing.T) {
	cur := wal.Cursor{Gen: 2, Seg: 5, Off: 100}
	end := wal.Cursor{Gen: 2, Seg: 5, Off: 140}

	p := startFakePrimary(t, func(r *bufio.Reader, w *bufio.Writer) error {
		args, err := handshake(r, w)
		if err != nil {
			return err
		}
		if len(args) != 3 || args[0] != "2" || args[1] != "5" || args[2] != "100" {
			return fmt.Errorf("PSYNC args = %v", args)
		}
		fmt.Fprintf(w, "+CONTINUE %d %d %d\n", cur.Gen, cur.Seg, cur.Off)
		WriteRecord(w, end, []byte("I s 9 1"), 0)
		w.Flush()
		readLine(r) // drain the ack
		return nil
	})

	tgt := newMemTarget()
	f := NewFollower(FollowerConfig{
		PrimaryAddr:   p.ln.Addr().String(),
		RetryInterval: 10 * time.Millisecond,
	}, tgt)
	// Seed the cursor as a previous session would have left it.
	f.status.Cursor = cur
	go f.Run()
	defer f.Stop()

	waitFor(t, "record applied", func() bool { return len(tgt.snapshot().applied) == 1 })
	got := tgt.snapshot()
	if got.wiped != 0 {
		t.Fatalf("unexpected full sync (wiped=%d)", got.wiped)
	}
	if got.applied[0] != "I s 9 1" {
		t.Fatalf("applied = %q", got.applied)
	}
	if err := <-p.errc; err != nil {
		t.Fatal(err)
	}
}

// TestFollowerApplyErrorForcesResync: an apply failure in the middle of
// a burst zeroes the cursor, so the next session asks for a full
// resync, and nothing of the failed burst is acknowledged — not even
// the records ahead of the failing one.
func TestFollowerApplyErrorForcesResync(t *testing.T) {
	cur := wal.Cursor{Gen: 1, Seg: 2, Off: 0}
	psyncs := make(chan string, 4)
	replies := make(chan string, 4) // what the follower sent after the burst

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
				args, err := handshake(r, w)
				if err != nil {
					return
				}
				psyncs <- strings.Join(args, " ")
				if args[0] == "?" {
					// Hold the second session open with no traffic.
					fmt.Fprintf(w, "+FULLRESYNC 1 2 0 0\nENDSNAP\n")
					w.Flush()
					io.Copy(io.Discard, r)
					return
				}
				// One flush, so the three frames reach the follower as one
				// burst with the failing record in the middle.
				fmt.Fprintf(w, "+CONTINUE %d %d %d\n", cur.Gen, cur.Seg, cur.Off)
				WriteRecord(w, wal.Cursor{Gen: 1, Seg: 2, Off: 40}, []byte("good-before"), 0)
				WriteRecord(w, wal.Cursor{Gen: 1, Seg: 2, Off: 80}, []byte("bad-record"), 0)
				WriteRecord(w, wal.Cursor{Gen: 1, Seg: 2, Off: 120}, []byte("good-after"), 0)
				w.Flush()
				line, _ := readLine(r)
				replies <- line
			}(conn)
		}
	}()

	tgt := newMemTarget()
	tgt.failOn = "bad-record"
	f := NewFollower(FollowerConfig{
		PrimaryAddr:   ln.Addr().String(),
		RetryInterval: 10 * time.Millisecond,
	}, tgt)
	f.status.Cursor = cur
	go f.Run()
	defer f.Stop()

	if got := <-psyncs; got != "1 2 0" {
		t.Fatalf("first PSYNC args = %q, want cursor continue", got)
	}
	if got := <-replies; got != "" {
		t.Fatalf("follower answered the failed burst with %q, want a closed connection", got)
	}
	if got := <-psyncs; got != "?" {
		t.Fatalf("second PSYNC args = %q, want ? (full resync after apply error)", got)
	}
	got := tgt.snapshot()
	if len(got.bursts) != 1 || got.bursts[0] != 3 {
		t.Fatalf("bursts = %v, want the three frames as one burst", got.bursts)
	}
	for _, a := range got.applied {
		if a != "good-before" { // which the second session's wipe may have dropped already
			t.Fatalf("applied = %q: the burst went on past its failing record", got.applied)
		}
	}
}

// TestFollowerReconnects: a dropped connection is retried.
func TestFollowerReconnects(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dials := make(chan struct{}, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials <- struct{}{}
			conn.Close() // immediate drop
		}
	}()

	f := NewFollower(FollowerConfig{
		PrimaryAddr:   ln.Addr().String(),
		RetryInterval: 5 * time.Millisecond,
	}, newMemTarget())
	go f.Run()
	defer f.Stop()

	for i := 0; i < 3; i++ {
		select {
		case <-dials:
		case <-time.After(5 * time.Second):
			t.Fatal("follower stopped redialing")
		}
	}
	waitFor(t, "reconnect counter", func() bool { return f.Status().Reconnects >= 2 })
}

// TestFollowerBackoff: retryDelay doubles per consecutive failure,
// caps at MaxRetryInterval, and jitters within ±25%.
func TestFollowerBackoff(t *testing.T) {
	f := NewFollower(FollowerConfig{
		PrimaryAddr:      "127.0.0.1:1",
		RetryInterval:    100 * time.Millisecond,
		MaxRetryInterval: 800 * time.Millisecond,
	}, newMemTarget())
	want := []time.Duration{
		100 * time.Millisecond, // fails 0 (first retry) and 1 share the base
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		800 * time.Millisecond, // capped
		800 * time.Millisecond,
	}
	for fails, base := range want {
		for i := 0; i < 20; i++ {
			d := f.retryDelay(uint64(fails))
			lo := time.Duration(float64(base) * 0.74)
			hi := time.Duration(float64(base) * 1.26)
			if d < lo || d > hi {
				t.Fatalf("retryDelay(%d) = %v, want in [%v, %v]", fails, d, lo, hi)
			}
		}
	}
}

// TestFollowerBackoffResetsOnConnect: repeated failed dials climb the
// backoff ladder (visible in Status), and a session that reaches
// streaming resets it.
func TestFollowerBackoffResetsOnConnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	failing := true
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			f := failing
			mu.Unlock()
			if f {
				conn.Close()
				continue
			}
			go func(conn net.Conn) {
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
				if _, err := handshake(r, w); err != nil {
					return
				}
				w.WriteString("+FULLRESYNC 1 1 0 0\nENDSNAP\n")
				w.Flush()
				io.Copy(io.Discard, r) // hold the session open, past the start ack
			}(conn)
		}
	}()

	dials := make(chan struct{}, 64)
	f := NewFollower(FollowerConfig{
		PrimaryAddr:      ln.Addr().String(),
		RetryInterval:    2 * time.Millisecond,
		MaxRetryInterval: 50 * time.Millisecond,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			dials <- struct{}{}
			return net.DialTimeout(network, addr, timeout)
		},
	}, newMemTarget())
	go f.Run()
	defer f.Stop()

	waitFor(t, "backoff ladder climbed", func() bool {
		st := f.Status()
		return st.ConsecutiveFailures >= 4 && st.NextRetryDelay > 2*time.Millisecond
	})
	mu.Lock()
	failing = false
	mu.Unlock()
	waitFor(t, "connected after failures", func() bool { return f.Status().Connected })
	st := f.Status()
	if st.ConsecutiveFailures != 0 || st.NextRetryDelay != 0 {
		t.Fatalf("backoff not reset on connect: %+v", st)
	}
	select {
	case <-dials:
	default:
		t.Fatal("custom Dial seam never used")
	}
}

// TestTrackerWaitAck: the semi-sync barrier releases on a sufficient
// ack, times out without one, and unblocks on shutdown.
func TestTrackerWaitAck(t *testing.T) {
	tr := NewTracker()
	done := make(chan struct{})
	pos := wal.Cursor{Gen: 1, Seg: 3, Off: 200}

	// No replicas: immediate timeout.
	if err := tr.WaitAck(pos, 1, 20*time.Millisecond, done); !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("WaitAck with no replicas = %v, want ErrAckTimeout", err)
	}
	// n=0 never blocks.
	if err := tr.WaitAck(pos, 0, 0, done); err != nil {
		t.Fatalf("WaitAck(n=0) = %v", err)
	}

	r := tr.Register("replica-1", wal.Cursor{Gen: 1, Seg: 3, Off: 0}, false)
	defer r.Close()
	errc := make(chan error, 1)
	go func() { errc <- tr.WaitAck(pos, 1, 5*time.Second, done) }()
	time.Sleep(10 * time.Millisecond)
	r.Ack(wal.Cursor{Gen: 1, Seg: 3, Off: 100}, 1, 100) // not enough
	select {
	case err := <-errc:
		t.Fatalf("WaitAck released early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.Ack(pos, 2, 300)
	if err := <-errc; err != nil {
		t.Fatalf("WaitAck after ack = %v", err)
	}

	// Ack beyond the position also satisfies the wait.
	if err := tr.WaitAck(wal.Cursor{Gen: 1, Seg: 3, Off: 150}, 1, time.Second, done); err != nil {
		t.Fatalf("WaitAck below acked position = %v", err)
	}

	// A replica that attaches with a full sync past the position holds
	// nothing yet: the attach alone releases no waiter; its ack of its
	// start, once the snapshot is loaded and durable, does.
	go func() { errc <- tr.WaitAck(wal.Cursor{Gen: 1, Seg: 4, Off: 50}, 2, time.Minute, done) }()
	time.Sleep(10 * time.Millisecond)
	r.Ack(wal.Cursor{Gen: 1, Seg: 4, Off: 50}, 3, 350) // one of two
	time.Sleep(10 * time.Millisecond)
	start2 := wal.Cursor{Gen: 2, Seg: 5, Off: 0}
	r2 := tr.Register("replica-2", start2, true)
	defer r2.Close()
	select {
	case err := <-errc:
		t.Fatalf("a full-sync attach released the waiter before the replica acked: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	r2.Ack(start2, 0, 0)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("WaitAck after the full-sync replica's start ack = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the full-sync replica's start ack did not release the waiter")
	}

	// Shutdown unblocks a stuck waiter.
	go func() { errc <- tr.WaitAck(wal.Cursor{Gen: 1, Seg: 9, Off: 0}, 1, time.Minute, done) }()
	time.Sleep(10 * time.Millisecond)
	close(done)
	if err := <-errc; !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("WaitAck on shutdown = %v, want ErrAckTimeout", err)
	}
}

// TestTrackerAccounting: MinAckSeg, Infos, lag math.
func TestTrackerAccounting(t *testing.T) {
	tr := NewTracker()
	if _, ok := tr.MinAckSeg(); ok {
		t.Fatal("MinAckSeg ok with no replicas")
	}
	a := tr.Register("a", wal.Cursor{Gen: 1, Seg: 4, Off: 0}, true)
	b := tr.Register("b", wal.Cursor{Gen: 1, Seg: 9, Off: 50}, false)
	if tr.Count() != 2 {
		t.Fatalf("Count = %d", tr.Count())
	}
	if seg, ok := tr.MinAckSeg(); !ok || seg != 4 {
		t.Fatalf("MinAckSeg = %d %v, want 4 true", seg, ok)
	}
	a.NoteSent(10, 500)
	a.Ack(wal.Cursor{Gen: 1, Seg: 5, Off: 0}, 7, 350)
	if seg, _ := tr.MinAckSeg(); seg != 5 {
		t.Fatalf("MinAckSeg after ack = %d, want 5", seg)
	}
	var ai ReplicaInfo
	for _, in := range tr.Infos() {
		if in.ID == "a" {
			ai = in
		}
	}
	if ai.UnackedRecords() != 3 {
		t.Fatalf("UnackedRecords = %d, want 3", ai.UnackedRecords())
	}
	if !ai.FullSync {
		t.Fatal("FullSync flag lost")
	}
	a.Close()
	if seg, _ := tr.MinAckSeg(); seg != 9 {
		t.Fatalf("MinAckSeg after close = %d, want 9", seg)
	}
	b.Close()
	if tr.Count() != 0 {
		t.Fatalf("Count after closes = %d", tr.Count())
	}
}

// TestProtoRoundTrip: framing helpers agree with themselves.
func TestProtoRoundTrip(t *testing.T) {
	var sb strings.Builder
	w := bufio.NewWriter(&sb)
	end := wal.Cursor{Gen: 9, Seg: 8, Off: 7}
	if err := WriteRecord(w, end, []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(strings.NewReader(sb.String()))
	line, err := readLine(r)
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(line)
	if len(fields) != 5 || fields[0] != "REC" {
		t.Fatalf("line = %q", line)
	}
	c, err := ParseCursor(fields[1], fields[2], fields[3])
	if err != nil || c != end {
		t.Fatalf("cursor = %v err %v", c, err)
	}
	body, err := readBlob(r, []byte("kept"), 7, 100)
	if err != nil || string(body) != "keptpayload" {
		t.Fatalf("blob = %q err %v", body, err)
	}
	if _, err := readBlob(bufio.NewReader(strings.NewReader("xx")), nil, 5, 3); err == nil {
		t.Fatal("oversized blob accepted")
	}
	if _, err := ParseCursor("1", "2", "-3"); err == nil {
		t.Fatal("negative offset accepted")
	}

	// REPLACK: ReadAck reads what WriteAck writes, byte for byte the
	// frame on the wire, and refuses a malformed one.
	sb.Reset()
	w.Reset(&sb)
	if err := WriteAck(w, end, 12, 345); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if sb.String() != "REPLACK 9 8 7 12 345\n" {
		t.Fatalf("ack frame = %q", sb.String())
	}
	c, recs, bytes, err := ReadAck(bufio.NewReader(strings.NewReader(sb.String())))
	if err != nil || c != end || recs != 12 || bytes != 345 {
		t.Fatalf("ReadAck = %v %d %d err %v", c, recs, bytes, err)
	}
	for _, bad := range []string{"REPLACK 9 8 7 12\n", "REC 9 8 7 12 345\n", "REPLACK 9 8 7 x 345\n", "REPLACK 9 8 -7 12 345\n"} {
		if _, _, _, err := ReadAck(bufio.NewReader(strings.NewReader(bad))); err == nil {
			t.Fatalf("ReadAck accepted %q", bad)
		}
	}
}

// TestProtoRecordTraceID: a non-zero trace ID rides as a sixth
// fixed-width hex field; a zero one keeps the legacy five-field shape
// byte for byte, so pre-tracing followers (which insist on exactly
// five fields) never see a frame they cannot parse.
func TestProtoRecordTraceID(t *testing.T) {
	frame := func(tid uint64) string {
		var sb strings.Builder
		w := bufio.NewWriter(&sb)
		if err := WriteRecord(w, wal.Cursor{Gen: 1, Seg: 2, Off: 30}, []byte("I s 7 1"), tid); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return sb.String()
	}
	if got, want := frame(0), "REC 1 2 30 7\nI s 7 1\n"; got != want {
		t.Fatalf("untraced frame = %q, want %q", got, want)
	}
	if got, want := frame(0xabc), "REC 1 2 30 7 0000000000000abc\nI s 7 1\n"; got != want {
		t.Fatalf("traced frame = %q, want %q", got, want)
	}
}

// TestFollowerMixedVersionStream: one session mixing five- and
// six-field REC frames applies both; a target that ignores tid (like a
// pre-tracing server would) loses nothing, and a malformed trace ID
// degrades to "not sampled" instead of killing the session. Text and
// binary payloads interleave the same way: the frame is
// length-delimited, so a payload may hold newlines, a REC header or a
// PING of its own, and may be larger than the reader's buffer and the
// burst bound.
func TestFollowerMixedVersionStream(t *testing.T) {
	cur := wal.Cursor{Gen: 1, Seg: 0, Off: 0}
	binary := []byte("\x01\x01s\nREC 1 0 99 1\nPING\n\x00\xff\r\n")
	large := bytes.Repeat([]byte("\x01\n01234567"), (maxBurstBytes+4096)/10)
	p := startFakePrimary(t, func(r *bufio.Reader, w *bufio.Writer) error {
		if _, err := handshake(r, w); err != nil {
			return err
		}
		fmt.Fprintf(w, "+CONTINUE %d %d %d\n", cur.Gen, cur.Seg, cur.Off)
		WriteRecord(w, wal.Cursor{Gen: 1, Seg: 0, Off: 10}, []byte("a"), 0)
		WriteRecord(w, wal.Cursor{Gen: 1, Seg: 0, Off: 20}, []byte("b"), 0x1122334455667788)
		// Hand-rolled frame with a garbage trace ID field.
		fmt.Fprintf(w, "REC 1 0 30 1 not-hex\nc\n")
		WriteRecord(w, wal.Cursor{Gen: 1, Seg: 0, Off: 40}, binary, 0)
		w.WriteString("PING\n")
		WriteRecord(w, wal.Cursor{Gen: 1, Seg: 0, Off: 50}, []byte("MINSERT s 1 2"), 0)
		WriteRecord(w, wal.Cursor{Gen: 1, Seg: 0, Off: 60}, large, 0xabc)
		WriteRecord(w, wal.Cursor{Gen: 1, Seg: 0, Off: 70}, []byte("d"), 0)
		w.Flush()
		for { // drain the acks until the follower goes away
			if _, err := readLine(r); err != nil {
				return nil
			}
		}
	})

	tgt := newMemTarget()
	f := NewFollower(FollowerConfig{
		PrimaryAddr:   p.ln.Addr().String(),
		RetryInterval: 10 * time.Millisecond,
	}, tgt)
	f.status.Cursor = cur
	go f.Run()
	defer f.Stop()

	want := []string{"a", "b", "c", string(binary), "MINSERT s 1 2", string(large), "d"}
	waitFor(t, "all records applied", func() bool { return len(tgt.snapshot().applied) == len(want) })
	got := tgt.snapshot()
	for i := range want {
		if got.applied[i] != want[i] {
			t.Fatalf("applied[%d] = %.40q, want %.40q", i, got.applied[i], want[i])
		}
	}
	if !slices.Equal(got.tids, []uint64{0, 0x1122334455667788, 0, 0, 0, 0xabc, 0}) {
		t.Fatalf("tids = %x", got.tids)
	}
	if got.wiped != 0 {
		t.Fatalf("mixed-version frames forced a full sync (wiped=%d)", got.wiped)
	}
	waitFor(t, "cursor at the last frame", func() bool { return f.Status().Cursor.Off == 70 })
	if st := f.Status(); st.AppliedRecs != uint64(len(want)) || st.AppliedBytes != uint64(len(strings.Join(want, ""))) {
		t.Fatalf("status = %+v", st)
	}
}
