package repl

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"she/internal/wal"
)

// Target is what a follower applies the replicated stream to — the
// server's registry + local durability, behind a small seam so the
// follower loop can be unit-tested without a server.
type Target interface {
	// BeginFullSync sets all local state aside ahead of a snapshot
	// transfer.
	BeginFullSync() error
	// SnapshotFile ingests one sealed snapshot file from the primary.
	SnapshotFile(name string, data []byte) error
	// EndFullSync finishes the bootstrap; start is the cursor the
	// stream resumes from (everything below it is in the snapshot).
	EndFullSync(start wal.Cursor) error
	// AbortFullSync undoes BeginFullSync when the transfer ends before
	// EndFullSync succeeds — a cut link, a bad file, a failed EndFullSync
	// or Stop: the target goes back to the state it had, which is what
	// the follower's cursor still describes.
	AbortFullSync()
	// ApplyBurst replays the records of one burst — what the stream
	// had ready when the follower looked — in order, and makes them
	// locally durable (fsync) before it returns; the follower
	// acknowledges only after that. An error means the replica may have
	// diverged from the primary: nothing of the burst is acknowledged
	// and the next session bootstraps from a snapshot.
	ApplyBurst(recs []Record) error
}

// Record is one replicated WAL record of a burst.
type Record struct {
	// Payload is the bytes the primary's crash recovery would replay.
	// It aliases the follower's burst buffer: valid until ApplyBurst
	// returns.
	Payload []byte
	// TraceID is the primary's trace ID for the command that produced
	// the record, 0 when it was not sampled; a tracing target joins the
	// cross-node trace under that ID, any other target ignores it.
	TraceID uint64
}

// maxBurstBytes closes a burst: the follower stops collecting REC
// frames once their payloads reach it, so the buffer a burst lives in
// holds at most this plus one record (wal.MaxRecordBytes) however far
// the follower is behind.
const maxBurstBytes = 256 << 10

const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 5 * time.Second
	// linkTimeout bounds the wait for stream traffic; the primary
	// heartbeats idle channels, so expiry means the link is dead.
	linkTimeout = 30 * time.Second
)

// FollowerConfig parameterises a replication client.
type FollowerConfig struct {
	// PrimaryAddr is the host:port of the primary's wire listener.
	PrimaryAddr string
	// ListenPort is this node's own client port, reported via
	// REPLCONF LISTENING-PORT for the primary's ROLE output.
	ListenPort int
	// RetryInterval is the base pause between reconnection attempts;
	// consecutive failures double it (with ±25% jitter) up to
	// MaxRetryInterval. Default 1s.
	RetryInterval time.Duration
	// MaxRetryInterval caps the backoff. Default 30s.
	MaxRetryInterval time.Duration
	// Dial establishes the primary connection. Default net.DialTimeout;
	// tests substitute a fault-injecting dialer (internal/failnet).
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// Logf, when set, receives follower lifecycle messages.
	Logf func(format string, args ...any)
}

// FollowerStatus is a point-in-time view of the replication client,
// for ROLE output and metrics.
type FollowerStatus struct {
	PrimaryAddr  string
	Connected    bool
	FullSyncs    uint64 // completed snapshot bootstraps
	Reconnects   uint64 // dial attempts after the first
	Cursor       wal.Cursor
	AppliedRecs  uint64 // session totals reported in REPLACK
	AppliedBytes uint64
	LastRecord   time.Time // when the last REC arrived (zero before any)
	// ConsecutiveFailures counts sessions since the last successful
	// handshake that ended without reaching the streaming state; it
	// drives the backoff and resets to zero on connect.
	ConsecutiveFailures uint64
	// NextRetryDelay is the backoff chosen for the upcoming (or
	// in-progress) reconnect wait; zero while connected.
	NextRetryDelay time.Duration
}

// Follower is the replication client: it dials the primary, performs
// the PSYNC handshake, bootstraps from a snapshot when needed, and
// applies the record stream to its Target until stopped.
type Follower struct {
	cfg    FollowerConfig
	target Target

	mu      sync.Mutex
	conn    net.Conn
	stopped bool
	status  FollowerStatus
	stop    chan struct{} // closed by Stop: interrupts retry sleeps
	done    chan struct{} // closed when Run returns
}

// NewFollower builds a follower; Run starts it.
func NewFollower(cfg FollowerConfig, target Target) *Follower {
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = time.Second
	}
	if cfg.MaxRetryInterval <= 0 {
		cfg.MaxRetryInterval = 30 * time.Second
	}
	if cfg.MaxRetryInterval < cfg.RetryInterval {
		cfg.MaxRetryInterval = cfg.RetryInterval
	}
	if cfg.Dial == nil {
		cfg.Dial = net.DialTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Follower{
		cfg:    cfg,
		target: target,
		status: FollowerStatus{PrimaryAddr: cfg.PrimaryAddr},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Run drives the replication loop until Stop: dial, handshake, stream,
// and on any error reconnect after a capped-exponential backoff with
// jitter (RetryInterval doubling per consecutive failure, up to
// MaxRetryInterval; a session that reaches streaming resets the
// ladder). It blocks; start it in a goroutine.
func (f *Follower) Run() {
	defer close(f.done)
	first := true
	for {
		f.mu.Lock()
		if f.stopped {
			f.mu.Unlock()
			return
		}
		if !first {
			f.status.Reconnects++
		}
		fails := f.status.ConsecutiveFailures
		f.mu.Unlock()

		if !first {
			delay := f.retryDelay(fails)
			f.mu.Lock()
			f.status.NextRetryDelay = delay
			f.mu.Unlock()
			select {
			case <-time.After(delay):
			case <-f.stop:
				return
			}
			f.mu.Lock()
			if f.stopped {
				f.mu.Unlock()
				return
			}
			f.mu.Unlock()
		}
		first = false

		err := f.session()
		f.mu.Lock()
		f.status.ConsecutiveFailures++
		f.mu.Unlock()
		if err != nil && !f.isStopped() {
			f.cfg.Logf("repl follower: session ended: %v", err)
		}
		if f.isStopped() {
			return
		}
	}
}

// retryDelay computes the reconnect pause after fails consecutive
// failed sessions: RetryInterval · 2^(fails-1), capped at
// MaxRetryInterval, with ±25% jitter so a fleet of followers does not
// reconnect in lockstep.
func (f *Follower) retryDelay(fails uint64) time.Duration {
	d := f.cfg.RetryInterval
	for i := uint64(1); i < fails && d < f.cfg.MaxRetryInterval; i++ {
		d *= 2
	}
	if d > f.cfg.MaxRetryInterval {
		d = f.cfg.MaxRetryInterval
	}
	jittered := time.Duration(float64(d) * (0.75 + rand.Float64()/2))
	if jittered <= 0 {
		jittered = d
	}
	return jittered
}

// Stop terminates the follower: the current connection is closed and
// Run returns. Safe to call more than once.
func (f *Follower) Stop() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	conn := f.conn
	close(f.stop)
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	<-f.done
}

// Status snapshots the follower's state.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status
}

func (f *Follower) isStopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stopped
}

// session runs one connection lifetime: handshake, optional full sync,
// then the streaming loop. Any returned error tears the connection
// down; Run reconnects.
func (f *Follower) session() error {
	conn, err := f.cfg.Dial("tcp", f.cfg.PrimaryAddr, dialTimeout)
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		conn.Close()
		return nil
	}
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		conn.Close()
		f.mu.Lock()
		f.conn = nil
		f.status.Connected = false
		f.mu.Unlock()
	}()

	link := linkConn{conn}
	r := bufio.NewReaderSize(link, 1<<16)
	w := bufio.NewWriterSize(link, 1<<16)

	expect := func(send, wantPrefix string) (string, error) {
		if _, err := w.WriteString(send + "\n"); err != nil {
			return "", err
		}
		if err := w.Flush(); err != nil {
			return "", err
		}
		line, err := readLine(r)
		if err != nil {
			return "", err
		}
		if !strings.HasPrefix(line, wantPrefix) {
			return "", fmt.Errorf("repl: sent %q, got %q (want %s…)", send, line, wantPrefix)
		}
		return line, nil
	}

	if _, err := expect("PING", "+PONG"); err != nil {
		return err
	}
	if _, err := expect(fmt.Sprintf("REPLCONF LISTENING-PORT %d", f.cfg.ListenPort), "+OK"); err != nil {
		return err
	}

	f.mu.Lock()
	cur := f.status.Cursor
	f.mu.Unlock()
	psync := "PSYNC ?"
	if !cur.IsZero() {
		psync = fmt.Sprintf("PSYNC %d %d %d", cur.Gen, cur.Seg, cur.Off)
	}
	if _, err := w.WriteString(psync + "\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	line, err := readLine(r)
	if err != nil {
		return err
	}
	fields := strings.Fields(line)
	switch {
	case len(fields) == 5 && fields[0] == "+FULLRESYNC":
		start, err := ParseCursor(fields[1], fields[2], fields[3])
		if err != nil {
			return err
		}
		nfiles, err := strconv.Atoi(fields[4])
		if err != nil || nfiles < 0 {
			return fmt.Errorf("repl: bad FULLRESYNC file count %q", fields[4])
		}
		if err := f.fullSync(r, w, start, nfiles); err != nil {
			return err
		}
		cur = start
	case len(fields) == 4 && fields[0] == "+CONTINUE":
		c, err := ParseCursor(fields[1], fields[2], fields[3])
		if err != nil {
			return err
		}
		cur = c
	default:
		return fmt.Errorf("repl: unexpected PSYNC reply %q", line)
	}

	f.mu.Lock()
	f.status.Connected = true
	f.status.Cursor = cur
	f.status.ConsecutiveFailures = 0
	f.status.NextRetryDelay = 0
	f.mu.Unlock()
	f.cfg.Logf("repl follower: streaming from %s at cursor %s", f.cfg.PrimaryAddr, cur)

	return f.stream(r, w, cur)
}

// linkConn arms the link's deadline where bytes meet the socket:
// linkTimeout from each read and each write, not from each protocol
// line, so a burst of frames pays one clock read and one poller update
// per socket read (the idleReader shape of internal/server), and a
// frame that arrives in pieces has the full timeout from its latest
// piece.
type linkConn struct{ net.Conn }

func (c linkConn) Read(p []byte) (int, error) {
	c.Conn.SetReadDeadline(time.Now().Add(linkTimeout))
	return c.Conn.Read(p)
}

func (c linkConn) Write(p []byte) (int, error) {
	c.Conn.SetWriteDeadline(time.Now().Add(linkTimeout))
	return c.Conn.Write(p)
}

// fullSync ingests the snapshot file transfer that follows +FULLRESYNC,
// then acknowledges start: the snapshot is loaded and, once EndFullSync
// returns, locally durable, which is what lets a semi-synchronous
// primary count this replica from here on.
func (f *Follower) fullSync(r *bufio.Reader, w *bufio.Writer, start wal.Cursor, nfiles int) error {
	f.cfg.Logf("repl follower: full sync from %s: %d files, start cursor %s", f.cfg.PrimaryAddr, nfiles, start)
	if err := f.target.BeginFullSync(); err != nil {
		return err
	}
	if err := f.loadSnapshot(r, start, nfiles); err != nil {
		f.target.AbortFullSync()
		return err
	}
	f.mu.Lock()
	f.status.FullSyncs++
	applied, appliedBytes := f.status.AppliedRecs, f.status.AppliedBytes
	f.mu.Unlock()
	if err := WriteAck(w, start, applied, appliedBytes); err != nil {
		return err
	}
	return w.Flush()
}

// loadSnapshot hands the transfer's files to the target and ends the
// full sync at ENDSNAP.
func (f *Follower) loadSnapshot(r *bufio.Reader, start wal.Cursor, nfiles int) error {
	for i := 0; i < nfiles; i++ {
		line, err := readLine(r)
		if err != nil {
			return err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != verbSnap {
			return fmt.Errorf("repl: expected SNAP, got %q", line)
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return fmt.Errorf("repl: bad SNAP size %q", fields[2])
		}
		data, err := readBlob(r, nil, size, MaxSnapshotFileBytes)
		if err != nil {
			return err
		}
		if err := f.target.SnapshotFile(fields[1], data); err != nil {
			return err
		}
	}
	line, err := readLine(r)
	if err != nil {
		return err
	}
	if line != verbEndSnap {
		return fmt.Errorf("repl: expected ENDSNAP, got %q", line)
	}
	return f.target.EndFullSync(start)
}

// stream applies REC frames until the connection dies, a burst at a
// time: it blocks for a frame, keeps parsing frames while the reader
// holds buffered bytes (up to maxBurstBytes of payload), hands the
// burst to Target.ApplyBurst — apply, log, fsync — and only then sends
// one REPLACK for its last cursor. A burst cut short by a read error
// is dropped unapplied; none of it was acknowledged, so the next
// session is sent it again. An ApplyBurst error is fatal to the
// replica's coherence — the cursor resets to zero so the next session
// full-resyncs.
func (f *Follower) stream(r *bufio.Reader, w *bufio.Writer, cur wal.Cursor) error {
	var (
		arena []byte   // the burst's payloads, back to back
		ends  []int    // ends[i] is where record i stops in arena
		recs  []Record // the burst as the target sees it
		fbuf  [8][]byte
	)
	for {
		arena, ends, recs = arena[:0], ends[:0], recs[:0]
		for more := true; more; more = r.Buffered() > 0 && len(arena) < maxBurstBytes {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return err
			}
			fields := splitFields(fbuf[:0], line)
			switch {
			case len(fields) == 1 && string(fields[0]) == verbPing:
				// Heartbeat: it has fed the read deadline.
			case (len(fields) == 5 || len(fields) == 6) && string(fields[0]) == verbRec:
				end, err := ParseCursor(string(fields[1]), string(fields[2]), string(fields[3]))
				if err != nil {
					return err
				}
				size, err := strconv.ParseInt(string(fields[4]), 10, 64)
				if err != nil {
					return fmt.Errorf("repl: bad REC length %q", fields[4])
				}
				// Optional sixth field: the primary's trace ID in hex.
				// Unparseable IDs degrade to "not sampled" rather than
				// killing the session — tracing is observability, not
				// replication correctness.
				var tid uint64
				if len(fields) == 6 {
					tid, _ = strconv.ParseUint(string(fields[5]), 16, 64)
				}
				// The header is parsed: reading the payload may now
				// overwrite the reader's buffer under fields.
				if arena, err = readBlob(r, arena, size, wal.MaxRecordBytes); err != nil {
					return err
				}
				ends = append(ends, len(arena))
				recs = append(recs, Record{TraceID: tid})
				cur = end
			default:
				return fmt.Errorf("repl: unexpected stream line %q", line)
			}
		}
		if len(recs) == 0 {
			continue
		}
		// Payloads are cut only now: arena may have moved while it grew.
		start := 0
		for i, end := range ends {
			recs[i].Payload = arena[start:end]
			start = end
		}
		if err := f.target.ApplyBurst(recs); err != nil {
			// The replica may now diverge from the primary; only a
			// fresh bootstrap restores coherence.
			f.mu.Lock()
			f.status.Cursor = wal.Cursor{}
			f.mu.Unlock()
			return fmt.Errorf("repl: apply failed (will full resync): %w", err)
		}
		f.mu.Lock()
		f.status.Cursor = cur
		f.status.AppliedRecs += uint64(len(recs))
		f.status.AppliedBytes += uint64(len(arena))
		f.status.LastRecord = time.Now()
		applied, appliedBytes := f.status.AppliedRecs, f.status.AppliedBytes
		f.mu.Unlock()
		if err := WriteAck(w, cur, applied, appliedBytes); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
}
