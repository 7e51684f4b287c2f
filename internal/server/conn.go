package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"she/internal/audit"
	"she/internal/obs"
	obslog "she/internal/obs/log"
	"she/internal/obs/traffic"
	"she/internal/obs/xtrace"
	"she/internal/wal"
)

var (
	errLineTooLong  = errors.New("line too long")
	errCommitFailed = errors.New("previous commit failed")
	errDraining     = errors.New("server draining")
)

// idleReader sits between the request bufio.Reader and the socket and
// is the one place the idle read deadline is armed — the mirror of
// syncWriter.Write for the write deadline. Arming immediately before
// each socket read, rather than once per request line, charges a
// pipelined flush one clock read and one poller update, and gives a
// line that arrives in pieces a full IdleTimeout from its latest piece
// instead of what was left when its first piece came in.
//
// The order is arm, check done, read: Shutdown closes done and then
// sets an immediate deadline on every connection, so either the check
// sees the close or the deadline this read runs under is Shutdown's —
// it cannot be overwritten by an arm that precedes the check.
//
// disarm hands the connection to a PSYNC stream or MONITOR feed, which
// have no idle limit: the next read lifts the deadline the last one
// armed, later ones leave it alone.
type idleReader struct {
	s    *Server
	conn net.Conn
	idle time.Duration // > 0 arm per read; < 0 lift once; 0 leave alone
}

func (r *idleReader) disarm() {
	if r.idle > 0 {
		r.idle = -1
	}
}

func (r *idleReader) Read(p []byte) (int, error) {
	if r.idle != 0 {
		var deadline time.Time
		if r.idle > 0 {
			deadline = time.Now().Add(r.idle)
		} else {
			r.idle = 0
		}
		r.conn.SetReadDeadline(deadline)
	}
	select {
	case <-r.s.done:
		return 0, errDraining
	default:
	}
	return r.conn.Read(p)
}

// readLine returns the next request line with its LF stripped, as a
// view into the reader's buffer valid until the next read — the fast
// path tokenizes it in place without a string conversion. Lines
// longer than the reader's buffer (MaxLineBytes) are unrecoverable —
// the reader cannot resync inside them — so they surface as
// errLineTooLong and the connection closes. A partial line at EOF
// (abrupt disconnect) is dropped silently.
func readLine(r *bufio.Reader) ([]byte, error) {
	b, err := r.ReadSlice('\n')
	if err == nil {
		return b[:len(b)-1], nil
	}
	if errors.Is(err, bufio.ErrBufferFull) {
		return nil, errLineTooLong
	}
	return nil, err
}

// handleConn runs one client's read-execute-reply loop. Replies are
// written in request order and flushed when the input buffer drains, so
// pipelined clients pay one syscall per batch, not per command.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	defer s.numConns.Add(-1)
	// Rendered once: the slow-query log and client accounting
	// attribute entries to this client, and RemoteAddr() allocates on
	// every call.
	remoteAddr := conn.RemoteAddr().String()
	// Register for CLIENT LIST/KILL before wrapping: Kill closes the
	// raw conn, and the counting wrapper accounts bytes per syscall so
	// a pipelining client pays roughly one atomic add per batch, not
	// per command.
	tc := s.traffic.Clients().Register(remoteAddr, conn)
	defer s.traffic.Clients().Unregister(tc)
	conn = traffic.CountConn(conn, tc)
	s.trackConn(conn, true)
	defer s.trackConn(conn, false)
	s.cConnsTotal.Inc()
	s.cConnsActive.Inc()
	defer s.cConnsActive.Add(-1)

	ir := &idleReader{s: s, conn: conn, idle: s.cfg.IdleTimeout}
	r := bufio.NewReaderSize(ir, MaxLineBytes)
	// The reply writer drains through the syncWriter barrier, so even a
	// bufio auto-flush (a client pipelining more replies than the
	// buffer holds) cannot leak an acknowledgement ahead of its fsync.
	bw := &syncWriter{s: s, conn: conn, armed: true}
	w := bufio.NewWriterSize(bw, 32*1024)
	batch := &connBatch{s: s, tc: tc, addr: remoteAddr}
	timed := s.verbHist != nil || s.cfg.SlowThreshold > 0
	// Per-connection latency accumulators: observations land in
	// single-writer LocalHists and merge into the shared per-verb
	// histograms at batch drain points (and on close), so the steady
	// state pays no LOCK-prefixed atomics per command. A /metrics scrape
	// lags by at most the batch in flight.
	var lats *connLats
	if s.verbHist != nil {
		lats = &connLats{verbs: make([]*obs.LocalHist, len(commandVerbs))}
		defer lats.flush(s)
	}
	// A failed commit is terminal for the connection: the error line has
	// been sent, so the deferred flush of any leftover replies must not
	// run again. bw.wrote tracks whether the current batch contains
	// mutations, so the semi-synchronous replica wait never blocks a
	// read-only batch; replListenPort is the port a replica advertised
	// via REPLCONF, for ROLE output.
	commitFailed := false
	replListenPort := ""
	// openTrs holds the sampled traces of the current batch: commands
	// whose replies are buffered but not yet durable. The commit closure
	// owns their lifecycle — it stamps the durability spans (inside
	// s.commit), marks them failed if the batch fails, and finishes
	// them. Replication spans may still land after Finish; xtrace
	// publishes spans individually, so that is safe by design.
	var openTrs []*xtrace.Trace
	commit := func() error {
		if commitFailed {
			return errCommitFailed
		}
		// Any batched inserts are applied (and their records appended)
		// first, so this commit's fsync covers them. A batch-apply WAL
		// failure is sticky, so s.commit's own Sync reports it to the
		// client and discards the buffered optimistic replies.
		aerr := batch.apply()
		err := s.commit(conn, w, bw, openTrs)
		for _, t := range openTrs {
			if err != nil {
				t.SetError()
			}
			t.Finish()
		}
		openTrs = openTrs[:0]
		if err == nil {
			err = aerr
		}
		if err != nil {
			commitFailed = true
			return err
		}
		return nil
	}
	defer commit()
	// One recover covers everything the loop runs — the fast path, a
	// batch apply, a slow-path command — and contains a panic to this
	// connection, the way a failed commit is contained: the pending
	// batch and the unsent replies (optimistic acknowledgements among
	// them) are dropped, the client gets one direct error line and a
	// closed connection, the daemon and its other connections keep
	// serving. Locks released by defer in the command path are released
	// by the unwind.
	defer func() {
		if p := recover(); p != nil {
			s.counters.Counter("panics_recovered").Inc()
			batch.reset()
			batch.release()
			commitFailed = true
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			writeError(conn, fmt.Sprintf("internal error: %v", p))
		}
	}()
	// startNs chains timestamps across a pipelined batch: when the next
	// command is already buffered, the end reading of this command is
	// the start reading of the next, so the steady state costs one clock
	// read per command instead of two. Zero means "take a fresh reading
	// after the next readLine".
	var startNs int64
	for {
		line, err := readLine(r)
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				s.cErrors.Inc()
				writeError(w, errLineTooLong.Error())
			}
			return
		}
		// The sampling decision is one atomic add; all trace plumbing
		// below is behind tr != nil, so the 255-in-256 path pays nothing
		// else. A sampled command's trace opens before parse so the
		// parse span lands inside it.
		tr := s.tracer.Start()
		if tr == nil {
			// Unsampled commands try the zero-allocation batch fast
			// path: pipelined SKETCH.INSERT/MINSERT lines accumulate
			// into the connection's batch and settle at the next drain
			// point, SKETCH.QUERY/SKETCH.CARD lines are answered from
			// their tokens. Anything else — including every deviation
			// the batch engine refuses — falls through to the slow path
			// below, after the pending batch is applied so execution
			// order (and WAL record order) matches request order.
			if timed && startNs == 0 {
				startNs = obs.Nanotime()
			}
			handled, vi, ferr := batch.tryFast(line, w, bw)
			if ferr != nil {
				commit()
				return
			}
			if handled {
				if timed {
					endNs := obs.Nanotime()
					s.observeFast(lats, vi, time.Duration(endNs-startNs), remoteAddr, line)
					if r.Buffered() > 0 {
						startNs = endNs
					} else {
						startNs = 0
					}
				}
				if r.Buffered() == 0 {
					lats.flush(s)
					if err := commit(); err != nil {
						return
					}
				}
				continue
			}
		}
		if aerr := batch.apply(); aerr != nil {
			commit()
			return
		}
		var cmd Command
		var parseEndNs int64
		if tr != nil {
			parseStartNs := obs.Nanotime()
			cmd, err = ParseCommand(string(line))
			parseEndNs = obs.Nanotime()
			tr.AddSpan("parse", parseStartNs, parseEndNs)
		} else {
			cmd, err = ParseCommand(string(line))
		}
		switch {
		case errors.Is(err, ErrEmpty):
			// Blank line: no reply. A sampled blank line abandons its
			// trace unfinished; it is never retained.
			startNs = 0
		case err != nil:
			s.cErrors.Inc()
			writeError(w, err.Error())
			if tr != nil {
				tr.SetVerb("PARSE_ERROR")
				tr.SetRemote(remoteAddr)
				tr.SetError()
				tr.Finish()
			}
			startNs = 0
		case err == nil && cmd.Name == "PSYNC":
			// The connection becomes a replication channel: flush any
			// pending replies, then hand it over for good.
			s.cCommands.Inc()
			if tr != nil {
				tr.SetVerb("PSYNC")
				tr.SetRemote(remoteAddr)
				tr.Finish()
			}
			lats.flush(s)
			if commit() != nil {
				return
			}
			// Disarm the durability barrier: the replication stream must
			// not block waiting for an acknowledgement from the very
			// replica whose stream sits behind this writer.
			bw.armed = false
			// The link is a replication channel now: CLIENT KILL must
			// refuse it (slow replicas are evicted via ReplicaMaxLagBytes,
			// never by an operator racing the ack cursor).
			tc.SetReplica()
			ir.disarm() // the replication channel manages its own deadlines
			s.servePSYNC(conn, r, w, cmd, replListenPort)
			return
		case err == nil && cmd.Name == "REPLCONF":
			s.cCommands.Inc()
			replListenPort = replconfPort(cmd, replListenPort)
			writeSimple(w, "OK")
			if tr != nil {
				tr.SetVerb("REPLCONF")
				tr.SetRemote(remoteAddr)
				tr.Finish()
			}
			startNs = 0
		case err == nil && cmd.Name == "MONITOR":
			// The connection becomes a live feed of sampled commands:
			// flush pending replies, then stream until the client hangs
			// up. The feed never back-pressures the hot path — a lagging
			// consumer loses frames, counted in monitor_dropped_total.
			s.cCommands.Inc()
			tc.Command(verbIndex("MONITOR"))
			if tr != nil {
				tr.SetVerb("MONITOR")
				tr.SetRemote(remoteAddr)
				tr.Finish()
			}
			lats.flush(s)
			if commit() != nil {
				return
			}
			// The read side's only job now is hangup detection: the idle
			// deadline comes off (a silent monitor is healthy).
			ir.disarm()
			s.serveMonitor(r, w, tc)
			return
		default:
			// Clock reads are skipped entirely when nothing consumes
			// them (histograms disabled and no slow threshold), and use
			// the monotonic-only obs.Nanotime rather than time.Now():
			// full wall+mono reads are real money on a sub-microsecond
			// command path. Fresh readings land after readLine, so a
			// measured duration covers execute (plus, for chained
			// pipelined commands, the buffered read and parse) but never
			// time spent blocked waiting for input.
			if timed && startNs == 0 {
				startNs = obs.Nanotime()
			}
			if tr != nil {
				tr.SetVerb(cmd.Name)
				tr.SetRemote(remoteAddr)
			}
			vi := verbIndex(cmd.Name)
			tc.Command(vi)
			if (vi == verbInsert || vi == verbMinsert) && len(cmd.Args) > 1 {
				tc.AddKeys(len(cmd.Args) - 1)
			}
			// The self-telemetry sampling decision: one atomic add for
			// the unsampled majority. A sampled insert feeds the hot-key
			// tracker; any sampled command becomes a MONITOR frame, but
			// only when someone is subscribed (rendering costs).
			if s.traffic.Sampled() {
				if vi == verbInsert || vi == verbMinsert {
					noteInsertKeys(s.traffic, cmd)
				}
				if s.traffic.Wants() {
					s.traffic.Publish(remoteAddr, cmd.Name, renderCommand(cmd))
				}
			}
			quit := s.admitExecute(cmd, tr, w, tc)
			if isMutation(cmd.Name) {
				bw.wrote = true
			}
			if timed || tr != nil {
				endNs := obs.Nanotime()
				if tr != nil {
					// The execute span starts at the parse boundary, so
					// it measures admission + execution even when the
					// batch timer (startNs) was chained from an earlier
					// pipelined command.
					tr.AddSpan("execute", parseEndNs, endNs)
					openTrs = append(openTrs, tr)
				}
				if timed {
					s.observe(lats, vi, cmd, time.Duration(endNs-startNs), remoteAddr, tr)
					if r.Buffered() > 0 {
						startNs = endNs
					} else {
						startNs = 0
					}
				}
			}
			if quit {
				return
			}
			s.maybeCheckpoint()
		}
		if r.Buffered() == 0 {
			lats.flush(s)
			if err := commit(); err != nil {
				return
			}
		}
	}
}

// connLats is one connection's latency accumulators, one LocalHist per
// verb actually used, allocated lazily. Owned by the connection
// goroutine; only flush touches shared state.
type connLats struct {
	verbs   []*obs.LocalHist
	pending int
}

// flush merges every accumulator into the shared per-verb histograms.
// Nil-safe, so the histograms-disabled path can call it unconditionally.
func (c *connLats) flush(s *Server) {
	if c == nil || c.pending == 0 {
		return
	}
	for i, l := range c.verbs {
		if l != nil {
			l.Flush(s.verbHist[i])
		}
	}
	c.pending = 0
}

// observe feeds one completed command into the latency accumulator for
// its verb (i is its verbIndex; unknown names share the OTHER bucket)
// and, past the configured threshold, into the slow-query log with the
// client's remote address. The slow-query check sees every command's
// exact duration; only the histogram merge is deferred.
func (s *Server) observe(lats *connLats, i int, cmd Command, d time.Duration, addr string, tr *xtrace.Trace) {
	if lats != nil { // nil when histograms are disabled but SlowThreshold isn't
		l := lats.verbs[i]
		if l == nil {
			l = &obs.LocalHist{}
			lats.verbs[i] = l
		}
		l.Observe(d)
		// A sampled command becomes its verb's histogram exemplar, so
		// /metrics can point at a concrete retained trace.
		s.noteExemplar(i, tr, d)
		// A client that pipelines forever without draining never hits the
		// batch-end flush, so cap the unflushed backlog here.
		if lats.pending++; lats.pending >= obs.FlushLimit {
			lats.flush(s)
		}
	}
	if t := s.cfg.SlowThreshold; t > 0 && d >= t {
		// At the shed_slowlog overload rung the ring stops absorbing
		// rendered command text; the counter still ticks so the drop is
		// visible, not silent.
		if s.over.slowShed.Load() {
			s.counters.Counter("overload_slowlog_dropped").Inc()
			return
		}
		s.slow.Record(renderCommand(cmd), d, time.Now(), addr, tr.ID())
		s.cSlowCommands.Inc()
		if s.logger.Enabled(obslog.LevelWarn) {
			s.logger.Warn("slow command", "verb", cmd.Name, "duration", d.String())
		}
	}
}

// observeFast is observe for fast-path commands: the same accumulator,
// flush-limit and slow-query behavior, but keyed by a precomputed
// verb index and rendering the raw line only when the command was
// actually slow — no Command struct, no per-command allocation. Fast-
// path commands are never sampled (tr != nil takes the slow path), so
// there is no exemplar to note and no trace ID to log.
func (s *Server) observeFast(lats *connLats, vi int, d time.Duration, addr string, line []byte) {
	if lats != nil {
		l := lats.verbs[vi]
		if l == nil {
			l = &obs.LocalHist{}
			lats.verbs[vi] = l
		}
		l.Observe(d)
		if lats.pending++; lats.pending >= obs.FlushLimit {
			lats.flush(s)
		}
	}
	if t := s.cfg.SlowThreshold; t > 0 && d >= t {
		if s.over.slowShed.Load() {
			s.counters.Counter("overload_slowlog_dropped").Inc()
			return
		}
		s.slow.Record(renderLine(line), d, time.Now(), addr, 0)
		s.cSlowCommands.Inc()
		if s.logger.Enabled(obslog.LevelWarn) {
			s.logger.Warn("slow command", "verb", commandVerbs[vi], "duration", d.String())
		}
	}
}

// renderLine bounds a raw request line for the slow-query log, the
// byte-slice analogue of renderCommand.
func renderLine(line []byte) string {
	const maxLen = 256
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if len(line) > maxLen {
		return string(line[:maxLen]) + "..."
	}
	return string(line)
}

// renderCommand reconstructs a command line for the slow-query log,
// bounded so a 128-key INSERT doesn't bloat the ring.
func renderCommand(cmd Command) string {
	const maxLen = 256
	line := cmd.Name
	if len(cmd.Args) > 0 {
		line += " " + strings.Join(cmd.Args, " ")
	}
	if len(line) > maxLen {
		line = line[:maxLen] + "..."
	}
	return line
}

// noteInsertKeys feeds a sampled insert command's parsed keys to the
// hot-key tracker. Runs 1-in-TrafficSample, so the allocation is off
// the common path.
func noteInsertKeys(t *traffic.Tracker, cmd Command) {
	if len(cmd.Args) < 2 {
		return
	}
	keys := make([]uint64, 0, len(cmd.Args)-1)
	for _, tok := range cmd.Args[1:] {
		keys = append(keys, ParseKey(tok))
	}
	t.NoteKeys([]byte(cmd.Args[0]), keys)
}

// commit makes the batch durable, then releases its replies. With a
// WAL, a buffered acknowledgement must not reach the client before the
// record it acknowledges reaches the disk; if the sync fails, the
// buffered replies are discarded — nothing unacknowledged was promised
// — and the client gets one direct error line before the connection
// closes. The log failure is sticky, so the server fails every later
// batch the same way (fail-stop) rather than guess at durability.
//
// With Config.SyncReplicas set, a batch containing mutations
// (bw.wrote) additionally waits for that many replicas to acknowledge
// the durable position before the replies go out — the semi-
// synchronous half of the zero-acked-loss failover guarantee.
// Read-only batches never wait.
// trs holds the batch's sampled traces; each gets a fsync_wait span
// around the group-commit sync (which amortises every command in the
// batch) and, under semi-synchronous replication, a replack_wait span
// around the replica-acknowledgement wait. Clock reads only happen
// when at least one command in the batch was sampled.
func (s *Server) commit(conn net.Conn, w *bufio.Writer, bw *syncWriter, trs []*xtrace.Trace) error {
	wrote := bw.wrote
	bw.wrote = false
	if s.wal != nil {
		var syncStartNs int64
		if len(trs) > 0 {
			syncStartNs = obs.Nanotime()
		}
		if err := s.wal.Sync(); err != nil {
			s.cWALErrors.Inc()
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			fmt.Fprintf(conn, "-ERR wal sync failed: %v\n", err)
			return err
		}
		if len(trs) > 0 {
			endNs := obs.Nanotime()
			for _, t := range trs {
				t.AddSpan("fsync_wait", syncStartNs, endNs)
			}
		}
		if wrote && s.cfg.SyncReplicas > 0 {
			pos := s.wal.Position()
			var ackStartNs int64
			if len(trs) > 0 {
				ackStartNs = obs.Nanotime()
			}
			if err := s.tracker.WaitAck(pos, s.cfg.SyncReplicas, s.syncReplicaTimeout(), s.done); err != nil {
				s.cReplTimeouts.Inc()
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				fmt.Fprintf(conn, "-ERR %v\n", err)
				return err
			}
			if len(trs) > 0 {
				endNs := obs.Nanotime()
				for _, t := range trs {
					t.AddSpan("replack_wait", ackStartNs, endNs)
				}
			}
		}
	}
	return w.Flush()
}

// isMutation reports whether a verb changes sketch state — the verbs
// the replica write gate refuses and the semi-synchronous commit
// waits on.
func isMutation(name string) bool {
	switch name {
	case "SKETCH.CREATE", "SKETCH.DROP", "SKETCH.INSERT", "MINSERT", "SKETCH.LOAD":
		return true
	}
	return false
}

// testPanic, when set by a test before the server starts, is called
// with each slow-path command so the per-connection panic containment
// can be exercised without shipping a crash-on-demand wire command.
var testPanic func(Command)

// execute runs one command and writes its reply; it reports whether
// the connection should close (QUIT). State-changing commands go
// through mutate, which pairs their apply+log atomically against
// checkpoints.
func (s *Server) execute(cmd Command, tr *xtrace.Trace, w *bufio.Writer, tc *traffic.Client) (quit bool) {
	s.cCommands.Inc()
	if testPanic != nil {
		testPanic(cmd)
	}
	var err error
	switch cmd.Name {
	case "PING":
		writeSimple(w, "PONG")
	case "QUIT":
		writeSimple(w, "OK")
		return true
	case "INFO":
		s.writeInfo(w)
	case "ROLE":
		s.cmdRole(w)
	case "REPLICAOF":
		err = s.cmdReplicaof(cmd, w)
	case "SLOWLOG":
		err = s.cmdSlowlog(cmd, w)
	case "TRACE":
		err = s.cmdTrace(cmd, w)
	case "HOTKEYS":
		err = s.cmdHotkeys(cmd, w)
	case "CLIENT":
		err = s.cmdClient(cmd, tc, w)
	case "SKETCH.LIST":
		s.writeList(w)
	case "SKETCH.STATS":
		err = s.cmdStats(cmd, w)
	case "SKETCH.AUDIT":
		err = s.cmdAudit(cmd, w)
	case "SKETCH.CREATE":
		if err = s.writeGate(); err == nil {
			if err = s.allocGate(); err == nil {
				err = s.mutateTraced(tr, func() error { return s.cmdCreate(cmd, tr, w) })
				s.evalOverload()
			}
		}
	case "SKETCH.DROP":
		if err = s.writeGate(); err == nil {
			err = s.mutateTraced(tr, func() error { return s.cmdDrop(cmd, tr, w) })
			s.evalOverload()
		}
	case "SKETCH.INSERT", "MINSERT":
		if err = s.writeGate(); err == nil {
			if err = s.insertGate(); err == nil {
				err = s.mutateTraced(tr, func() error { return s.cmdInsert(cmd, tr, w) })
			}
		}
	case "SKETCH.QUERY":
		err = s.cmdQuery(cmd, w)
	case "SKETCH.CARD":
		err = s.cmdCard(cmd, w)
	case "SKETCH.SAVE":
		err = s.cmdSave(cmd, w)
	case "SKETCH.LOAD":
		if err = s.writeGate(); err == nil {
			if err = s.allocGate(); err == nil {
				err = s.cmdLoad(cmd, w)
				s.evalOverload()
			}
		}
	default:
		err = fmt.Errorf("unknown command %q", cmd.Name)
	}
	if err != nil {
		s.cErrors.Inc()
		writeError(w, err.Error())
		tr.SetError() // nil-safe; errored traces are pinned in the ring
	}
	return false
}

// mutateTraced is mutate with a span around the whole mutation —
// sketch apply plus WAL append — when the command is sampled.
func (s *Server) mutateTraced(tr *xtrace.Trace, fn func() error) error {
	if tr == nil {
		return s.mutate(fn)
	}
	sp := tr.StartSpan("mutate")
	err := s.mutate(fn)
	sp.End()
	return err
}

// wantArgs checks the argument count: exactly n when variadic is
// false, at least n otherwise.
func wantArgs(cmd Command, n int, variadic bool, usage string) error {
	if len(cmd.Args) == n || (variadic && len(cmd.Args) > n) {
		return nil
	}
	return fmt.Errorf("%s: want %s", cmd.Name, usage)
}

func (s *Server) cmdCreate(cmd Command, tr *xtrace.Trace, w *bufio.Writer) error {
	if err := wantArgs(cmd, 2, true, "name kind [param=value ...]"); err != nil {
		return err
	}
	name := cmd.Args[0]
	if !ValidName(name) {
		return fmt.Errorf("invalid sketch name %q", name)
	}
	kv, err := ParseKV(cmd.Args[2:])
	if err != nil {
		return err
	}
	if err := s.reg.Create(name, cmd.Args[1], kv); err != nil {
		return err
	}
	// The record keeps the original parameter tokens, so replay builds
	// an identical sketch through the same constructor.
	if err := s.walAppend([]byte("SKETCH.CREATE "+strings.Join(cmd.Args, " ")), tr); err != nil {
		return err
	}
	writeSimple(w, "OK")
	return nil
}

func (s *Server) cmdDrop(cmd Command, tr *xtrace.Trace, w *bufio.Writer) error {
	if err := wantArgs(cmd, 1, false, "name"); err != nil {
		return err
	}
	if err := s.reg.Drop(cmd.Args[0]); err != nil {
		return err
	}
	// The hot-key tracker follows the registry: a dropped sketch's
	// telemetry window must not linger (or leak map entries).
	s.traffic.Forget(cmd.Args[0])
	if err := s.walAppend([]byte("SKETCH.DROP "+cmd.Args[0]), tr); err != nil {
		return err
	}
	writeSimple(w, "OK")
	return nil
}

// cmdInsert serves both insert verbs — SKETCH.INSERT and its batch
// alias MINSERT — on the slow path (sampled commands and anything the
// fast path refused). It logs the same insert record the batch engine
// does: the parsed uint64 keys, so replay is exact without depending on
// how the original token hashed.
func (s *Server) cmdInsert(cmd Command, tr *xtrace.Trace, w *bufio.Writer) error {
	if err := wantArgs(cmd, 2, true, "name key [key ...]"); err != nil {
		return err
	}
	sk, err := s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	buf := insertBufs.Get().(*insertBuf)
	defer insertBufs.Put(buf)
	keys := buf.insertTokens(sk, cmd.Args[1:])
	if s.wal != nil {
		rec := AppendInsertRecord(nil, []byte(cmd.Args[0]), keys)
		if err := s.walAppend(rec, tr); err != nil {
			return err
		}
	}
	s.cInserts.Add(int64(len(keys)))
	writeInt(w, int64(len(keys)))
	return nil
}

func (s *Server) cmdQuery(cmd Command, w *bufio.Writer) error {
	if err := wantArgs(cmd, 2, false, "name key"); err != nil {
		return err
	}
	sk, err := s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	v, err := sk.Query(ParseKey(cmd.Args[1]))
	if err != nil {
		return err
	}
	writeInt(w, v)
	return nil
}

func (s *Server) cmdCard(cmd Command, w *bufio.Writer) error {
	if err := wantArgs(cmd, 1, false, "name"); err != nil {
		return err
	}
	sk, err := s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	v, err := sk.Cardinality()
	if err != nil {
		return err
	}
	writeFloat(w, v)
	return nil
}

// snapshotFile picks the snapshot file name for SAVE/LOAD: the second
// argument when given, otherwise the sketch name itself.
func snapshotFile(cmd Command) string {
	if len(cmd.Args) == 2 {
		return cmd.Args[1]
	}
	return cmd.Args[0]
}

func (s *Server) cmdSave(cmd Command, w *bufio.Writer) error {
	if len(cmd.Args) < 1 || len(cmd.Args) > 2 {
		return fmt.Errorf("%s: want name [file]", cmd.Name)
	}
	sk, err := s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	path, err := s.snapshotPath(snapshotFile(cmd))
	if err != nil {
		return err
	}
	// Sealed + atomic: a concurrent crash leaves either the previous
	// file or the new one, and a later load verifies the checksum.
	if err := writeSketchFile(s.fs, path, sk); err != nil {
		return err
	}
	s.counters.Counter("snapshots_saved").Inc()
	writeSimple(w, "OK")
	return nil
}

func (s *Server) cmdLoad(cmd Command, w *bufio.Writer) error {
	if len(cmd.Args) < 1 || len(cmd.Args) > 2 {
		return fmt.Errorf("%s: want name [file]", cmd.Name)
	}
	name := cmd.Args[0]
	if !ValidName(name) {
		return fmt.Errorf("invalid sketch name %q", name)
	}
	path, err := s.snapshotPath(snapshotFile(cmd))
	if err != nil {
		return err
	}
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return err
	}
	sk, err := parseSnapshot(data)
	if err != nil {
		// Damaged bytes must never be retried into a sketch: park the
		// file and tell the client why.
		s.counters.Counter("snapshots_quarantined").Inc()
		if q, qerr := wal.Quarantine(s.fs, path); qerr == nil {
			return fmt.Errorf("%v (quarantined to %s)", err, filepath.Base(q))
		}
		return err
	}
	if s.wal == nil {
		s.reg.Put(name, sk)
	} else {
		// A load replaces whole-sketch state, which the record log
		// cannot express; checkpoint before acknowledging so the
		// loaded state is durable and replay stays consistent.
		s.chkMu.Lock()
		s.reg.Put(name, sk)
		err := s.checkpointLocked(true)
		s.chkMu.Unlock()
		if err != nil {
			return err
		}
	}
	s.counters.Counter("snapshots_loaded").Inc()
	writeSimple(w, "OK")
	return nil
}

// cmdSlowlog serves the slow-query ring: SLOWLOG [GET [n] | LEN |
// RESET]. Bare SLOWLOG means GET. Entries come back newest-first, one
// key=value line each; times are RFC 3339 with millisecond precision.
func (s *Server) cmdSlowlog(cmd Command, w *bufio.Writer) error {
	sub := "GET"
	if len(cmd.Args) > 0 {
		sub = strings.ToUpper(cmd.Args[0])
	}
	switch sub {
	case "GET":
		n := -1
		if len(cmd.Args) > 1 {
			v, err := strconv.Atoi(cmd.Args[1])
			if err != nil || v < 0 {
				return fmt.Errorf("SLOWLOG GET: bad count %q", cmd.Args[1])
			}
			n = v
		}
		if len(cmd.Args) > 2 {
			return fmt.Errorf("SLOWLOG GET: want at most one count argument")
		}
		entries := s.slow.Entries()
		if n >= 0 && n < len(entries) {
			entries = entries[:n]
		}
		lines := make([]string, len(entries))
		for i, e := range entries {
			// trace= links the entry to TRACE GET <id>; "-" means the
			// command was not sampled. Slow traces are pinned in the
			// trace ring, so the id usually still resolves.
			tid := "-"
			if e.TraceID != 0 {
				tid = xtrace.FormatID(e.TraceID)
			}
			lines[i] = fmt.Sprintf("id=%d time=%s duration_us=%d addr=%s trace=%s command=%q",
				e.ID, e.Time.UTC().Format("2006-01-02T15:04:05.000Z"),
				e.Duration.Microseconds(), e.RemoteAddr, tid, e.Command)
		}
		writeArray(w, lines)
	case "LEN":
		writeInt(w, int64(s.slow.Len()))
	case "RESET":
		s.slow.Reset()
		writeSimple(w, "OK")
	default:
		return fmt.Errorf("SLOWLOG: unknown subcommand %q (want GET, LEN or RESET)", cmd.Args[0])
	}
	return nil
}

// cmdStats serves SHE-aware sketch introspection: SKETCH.STATS <name>
// returns one key=value line per field; SKETCH.STATS * returns one
// summary line per sketch. The numbers come from a read-only Stats
// snapshot — no lazy cleaning runs — so fill and age-class counts are
// approximate between cleanings (stale cells a query would clean on
// contact are still counted).
func (s *Server) cmdStats(cmd Command, w *bufio.Writer) error {
	if err := wantArgs(cmd, 1, false, "name|*"); err != nil {
		return err
	}
	if cmd.Args[0] == "*" {
		infos := s.reg.List()
		lines := make([]string, len(infos))
		for i, in := range infos {
			v := statsView(in)
			lines[i] = fmt.Sprintf("%s kind=%s shards=%d window=%d inserts=%d fill_ratio=%.4f cycle_position=%.4f young=%d perfect=%d aged=%d",
				in.Name, v.Kind, v.Shards, v.Window, v.Inserts,
				v.FillRatio, v.CyclePosition, v.Young, v.Perfect, v.Aged)
		}
		writeArray(w, lines)
		return nil
	}
	sk, err := s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	v := statsView(SketchInfo{
		Name: cmd.Args[0], Kind: sk.Kind(),
		Inserts: sk.Inserts(), MemoryBits: sk.MemoryBits(), Sketch: sk,
	})
	writeArray(w, []string{
		"kind=" + v.Kind,
		fmt.Sprintf("shards=%d", v.Shards),
		fmt.Sprintf("window=%d", v.Window),
		fmt.Sprintf("tcycle=%d", v.Tcycle),
		fmt.Sprintf("inserts=%d", v.Inserts),
		fmt.Sprintf("memory_bits=%d", v.MemoryBits),
		fmt.Sprintf("cells=%d", v.Cells),
		fmt.Sprintf("filled_cells=%d", v.Filled),
		fmt.Sprintf("fill_ratio=%.4f", v.FillRatio),
		fmt.Sprintf("cycle_position=%.4f", v.CyclePosition),
		fmt.Sprintf("young_cells=%d", v.Young),
		fmt.Sprintf("perfect_cells=%d", v.Perfect),
		fmt.Sprintf("aged_cells=%d", v.Aged),
	})
	return nil
}

// cmdAudit serves the online accuracy auditor: SKETCH.AUDIT <name>
// returns one key=value line per field (enabled=false when auditing is
// off), SKETCH.AUDIT <name> RESET restarts the measurement in place,
// and SKETCH.AUDIT * returns one summary line per audited sketch. The
// phase_are/phase_obs lines are the error-vs-cleaning-cycle-phase
// profile: 16 comma-separated buckets spanning one Tcycle sweep.
func (s *Server) cmdAudit(cmd Command, w *bufio.Writer) error {
	if len(cmd.Args) < 1 || len(cmd.Args) > 2 {
		return fmt.Errorf("%s: want name|* [RESET]", cmd.Name)
	}
	if cmd.Args[0] == "*" {
		if len(cmd.Args) > 1 {
			return fmt.Errorf("%s: RESET takes a sketch name, not *", cmd.Name)
		}
		var lines []string
		for _, in := range s.reg.List() {
			a := in.Sketch.Audit()
			if a == nil {
				continue
			}
			lines = append(lines, auditSummary(in.Name, a.Snapshot()))
		}
		writeArray(w, lines)
		return nil
	}
	sk, err := s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	a := sk.Audit()
	if len(cmd.Args) == 2 {
		if !strings.EqualFold(cmd.Args[1], "RESET") {
			return fmt.Errorf("%s: unknown subcommand %q (want RESET)", cmd.Name, cmd.Args[1])
		}
		if a == nil {
			return fmt.Errorf("%s: auditing is disabled (start shed with -audit-sample)", cmd.Name)
		}
		a.Reset()
		writeSimple(w, "OK")
		return nil
	}
	if a == nil {
		writeArray(w, []string{"enabled=false"})
		return nil
	}
	st := a.Snapshot()
	lines := []string{
		"enabled=true",
		"kind=" + st.Kind.String(),
		fmt.Sprintf("sample_prob=%g", st.SampleProb),
		fmt.Sprintf("shadow_len=%d", st.ShadowLen),
		fmt.Sprintf("shadow_cap=%d", st.ShadowCap),
		fmt.Sprintf("shadow_keys=%d", st.ShadowKeys),
		fmt.Sprintf("coverage=%g", st.Coverage),
		fmt.Sprintf("observations=%d", st.Observations),
	}
	switch st.Kind {
	case audit.Frequency:
		lines = append(lines,
			fmt.Sprintf("err_samples=%d", st.ErrSamples),
			fmt.Sprintf("are=%g", st.ARE()),
			fmt.Sprintf("aae=%g", st.AAE()),
			fmt.Sprintf("last_rel_err=%g", st.LastRelErr))
	case audit.Membership:
		lines = append(lines,
			fmt.Sprintf("present_probes=%d", st.PresentProbes),
			fmt.Sprintf("false_negatives=%d", st.FalseNegatives),
			fmt.Sprintf("fn_rate=%g", st.FNRate()),
			fmt.Sprintf("absent_probes=%d", st.AbsentProbes),
			fmt.Sprintf("false_positives=%d", st.FalsePositives),
			fmt.Sprintf("fp_rate=%g", st.FPRate()))
	case audit.Cardinality:
		lines = append(lines,
			fmt.Sprintf("card_checks=%d", st.CardChecks),
			fmt.Sprintf("are=%g", st.ARE()),
			fmt.Sprintf("last_card_est=%g", st.LastCardEst),
			fmt.Sprintf("last_card_truth=%g", st.LastCardTruth))
	}
	are := make([]string, len(st.Phase))
	obs := make([]string, len(st.Phase))
	for i, b := range st.Phase {
		are[i] = strconv.FormatFloat(b.Mean(), 'g', 6, 64)
		obs[i] = strconv.FormatUint(b.Observations, 10)
	}
	lines = append(lines,
		"phase_are="+strings.Join(are, ","),
		"phase_obs="+strings.Join(obs, ","))
	writeArray(w, lines)
	return nil
}

// auditSummary renders one SKETCH.AUDIT * row with the fields that
// matter for the sketch's kind.
func auditSummary(name string, st audit.Stats) string {
	head := fmt.Sprintf("%s kind=%s sample_prob=%g observations=%d shadow_keys=%d",
		name, st.Kind, st.SampleProb, st.Observations, st.ShadowKeys)
	switch st.Kind {
	case audit.Frequency:
		return head + fmt.Sprintf(" are=%g aae=%g", st.ARE(), st.AAE())
	case audit.Membership:
		return head + fmt.Sprintf(" fp_rate=%g fn_rate=%g", st.FPRate(), st.FNRate())
	default:
		return head + fmt.Sprintf(" card_checks=%d are=%g", st.CardChecks, st.ARE())
	}
}

func (s *Server) writeInfo(w *bufio.Writer) {
	uptime := time.Since(s.start).Seconds()
	role := "primary"
	if s.primaryAddr() != "" {
		role = "replica"
	}
	lines := []string{
		fmt.Sprintf("uptime_seconds=%.1f", uptime),
		"role=" + role,
		fmt.Sprintf("sketches=%d", s.reg.Len()),
		fmt.Sprintf("connected_replicas=%d", s.tracker.Count()),
	}
	// clients section: the per-connection accounting registry plus
	// the self-telemetry sampler's health.
	clBytesIn, clBytesOut, clMonitors := s.traffic.Clients().Totals()
	lines = append(lines,
		fmt.Sprintf("clients_connected=%d", s.traffic.Clients().Count()),
		fmt.Sprintf("clients_monitor=%d", clMonitors),
		fmt.Sprintf("clients_bytes_in=%d", clBytesIn),
		fmt.Sprintf("clients_bytes_out=%d", clBytesOut),
		fmt.Sprintf("traffic_sample=%d", s.traffic.SampleEvery()),
		fmt.Sprintf("traffic_sampled_total=%d", s.traffic.SampledTotal()),
		fmt.Sprintf("monitor_dropped_total=%d", s.traffic.Monitor().Dropped()))
	if s.cfg.MaxMemory > 0 {
		lines = append(lines,
			"overload_level="+s.overloadLevel().String(),
			fmt.Sprintf("memory_used_bytes=%d", s.over.usedBytes.Load()),
			fmt.Sprintf("memory_limit_bytes=%d", s.cfg.MaxMemory))
	}
	if s.admit != nil {
		lines = append(lines,
			fmt.Sprintf("inflight_commands=%d", s.admit.n.Load()),
			fmt.Sprintf("max_inflight=%d", s.admit.max))
	}
	if uptime > 0 {
		cps := float64(s.counters.Counter("commands_total").Value()) / uptime
		lines = append(lines, fmt.Sprintf("commands_per_sec=%.1f", cps))
	}
	for _, name := range s.counters.Names() {
		lines = append(lines, fmt.Sprintf("%s=%d", name, s.counters.Counter(name).Value()))
	}
	writeArray(w, lines)
}

func (s *Server) writeList(w *bufio.Writer) {
	infos := s.reg.List()
	lines := make([]string, len(infos))
	for i, in := range infos {
		lines[i] = fmt.Sprintf("%s kind=%s shards=%d window=%d inserts=%d memory_kb=%.1f",
			in.Name, in.Kind, in.Shards, in.Window, in.Inserts, float64(in.MemoryBits)/8192)
	}
	writeArray(w, lines)
}
