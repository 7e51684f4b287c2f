package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strconv"
	"strings"
	"time"

	"she/internal/audit"
	"she/internal/obs"
	"she/internal/obs/traffic"
	"she/internal/obs/xtrace"
)

var (
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

// conn is one client connection: its socket behind the idle reader and
// the durability barrier, its batch engine, and what the command loop
// carries from one line to the next. Owned by the connection goroutine.
type conn struct {
	s    *Server
	nc   net.Conn // the socket, counting bytes into tc
	addr string   // rendered once: RemoteAddr() allocates on every call
	tc   *traffic.Client
	ir   *idleReader
	r    *bufio.Reader
	bw   *syncWriter   // the durability barrier every reply byte passes
	w    *bufio.Writer // replies, buffered over bw

	batch connBatch

	// lats holds the per-verb latency observations until a drain merges
	// them into the shared histograms, so the steady state pays no
	// LOCK-prefixed atomics per command and a /metrics scrape lags by at
	// most the batch in flight.
	lats connLats
	// startNs chains timestamps across a pipelined batch: when the next
	// command is already buffered, the end reading of this command is
	// the start reading of the next, so the steady state costs one clock
	// read per command instead of two. Zero means "take a fresh reading
	// after the next line is read", so a measured duration never covers time
	// spent blocked waiting for input. The readings are obs.Nanotime's,
	// monotonic only: full wall+mono reads are real money on a
	// sub-microsecond command path.
	startNs int64

	// tr is the current command's sampled trace, nil for the 255 in 256
	// that are not. openTrs holds the sampled traces of the current
	// batch — commands whose replies are buffered but not yet durable;
	// commit stamps their durability spans and finishes them.
	// Replication spans may still land after Finish; xtrace publishes
	// spans individually, so that is safe by design.
	tr      *xtrace.Trace
	openTrs []*xtrace.Trace

	failed   bool   // a commit failed or a panic was contained: terminal
	quit     bool   // a handler asked for the connection to close
	replPort string // the listening port a replica advertised via REPLCONF
}

func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{s: s, addr: nc.RemoteAddr().String()}
	// Register for CLIENT LIST/KILL before wrapping: Kill closes the raw
	// conn, and the counting wrapper accounts bytes per syscall so a
	// pipelining client pays roughly one atomic add per batch, not per
	// command.
	c.tc = s.clients.Register(c.addr, nc)
	c.nc = traffic.CountConn(nc, c.tc)
	c.ir = &idleReader{s: s, conn: c.nc, idle: s.cfg.IdleTimeout}
	c.r = bufio.NewReaderSize(c.ir, MaxLineBytes)
	c.bw = &syncWriter{s: s, conn: c.nc, armed: true}
	c.w = bufio.NewWriterSize(c.bw, 32*1024)
	c.batch = connBatch{s: s, bw: c.bw, tc: c.tc, addr: c.addr}
	return c
}

// handleConn runs one client's read-execute-reply loop. Replies are
// written in request order and flushed when the input buffer drains, so
// pipelined clients pay one syscall per batch, not per command.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	defer nc.Close()
	defer s.ctr.ConnsActive.Add(-1) // raised by acceptLoop
	c := s.newConn(nc)
	defer s.clients.Unregister(c.tc)
	defer c.commit()
	defer c.contain()
	for {
		// The line is a view into the reader's buffer, valid until the
		// next read: the fast path tokenizes it in place. One longer than
		// the buffer (MaxLineBytes) is unrecoverable — the reader cannot
		// resync inside it — so it is answered and the connection closes;
		// a partial line at EOF (abrupt disconnect) is dropped silently.
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				s.ctr.Errors.Inc()
				writeError(c.w, "line too long")
			}
			return
		}
		line = line[:len(line)-1]
		// The one sampling decision for the line: a traced command's trace
		// opens before parse so the parse span lands inside it, and a line
		// sampled for traffic feeds MONITOR and the hot keys on either path.
		traced, hot := s.sample.Line()
		c.tr, c.batch.hot = nil, hot
		if traced {
			c.tr = s.tracer.Start()
		} else {
			// Untraced commands try the batch fast path (connBatch);
			// what it declines, leaving no trace, is the slow path's.
			if c.startNs == 0 {
				c.startNs = obs.Nanotime()
			}
			handled, vi, ferr := c.batch.tryFast(line, c.w)
			if ferr != nil {
				return // the deferred commit reports the sticky WAL failure
			}
			if handled {
				c.observe(vi, line, obs.Nanotime())
				if c.r.Buffered() == 0 && c.commit() != nil {
					return
				}
				continue
			}
		}
		if c.slow(line) || c.r.Buffered() == 0 && c.commit() != nil {
			return
		}
	}
}

// contain is handleConn's deferred recover, the one that covers
// everything the loop runs — the fast path, a batch apply, a slow-path
// command. A panic costs this connection, the way a failed commit does:
// the pending batch
// and the unsent replies (optimistic acknowledgements among them) are
// dropped, the client gets one direct error line and a closed
// connection, the daemon and its other connections keep serving. Locks
// released by defer in the command path are released by the unwind.
func (c *conn) contain() {
	p := recover()
	if p == nil {
		return
	}
	c.s.ctr.PanicsRecovered.Inc()
	c.batch.release()
	c.failed = true
	c.nc.SetWriteDeadline(time.Now().Add(time.Second))
	writeError(c.nc, fmt.Sprintf("internal error: %v", p))
}

// commit is the drain point: the pending inserts are applied (and their
// records appended), the barrier makes everything logged durable, and
// only then are the buffered replies released. If the barrier fails the
// replies are discarded — nothing unacknowledged was promised — and the
// client gets one direct error line before the connection closes. The
// log failure is sticky, so the server fails every later batch the same
// way (fail-stop) rather than guess at durability; a batch-apply WAL
// failure is that same sticky failure, so the barrier reports it.
//
// A failed commit is terminal for the connection: the error line has
// been sent, so the deferred flush of any leftover replies must not run
// again.
func (c *conn) commit() error {
	c.lats.flush(c.s)
	if c.failed {
		return errCommitFailed
	}
	aerr := c.batch.apply()
	err := c.bw.barrier(c.openTrs)
	if err != nil {
		c.nc.SetWriteDeadline(time.Now().Add(time.Second))
		fmt.Fprintf(c.nc, "-ERR %v\n", err)
	} else {
		err = c.w.Flush()
	}
	for _, t := range c.openTrs {
		if err != nil {
			t.SetError()
		}
		t.Finish()
	}
	c.openTrs = c.openTrs[:0]
	if err == nil {
		err = aerr
	}
	c.failed = err != nil
	return err
}

// slow runs one request line on the general path: every verb but the
// four the fast path serves, every line the fast path declined, and
// every traced command. The pending batch is applied first, so
// execution order — and WAL record order — is request order. It reports
// whether the connection is over.
func (c *conn) slow(line []byte) (over bool) {
	s, tr := c.s, c.tr
	if c.batch.apply() != nil {
		return true // the deferred commit reports the sticky WAL failure
	}
	sp := tr.StartSpan("parse")
	cmd, err := ParseCommand(string(line))
	sp.End()
	if errors.Is(err, ErrEmpty) {
		// Blank line: no reply. A sampled blank line abandons its trace
		// unfinished; it is never retained.
		c.startNs = 0
		return false
	}
	// The execute span starts at the parse boundary, so it measures
	// admission + execution even when the batch timer (startNs) was
	// chained from an earlier pipelined command.
	sp = tr.StartSpan("execute")
	vi, label := verbOther, "PARSE_ERROR"
	if err == nil {
		vi, label = lookupVerb(cmd.Name), cmd.Name
	}
	if tr != nil {
		tr.SetVerb(label)
		tr.SetRemote(c.addr)
		c.openTrs = append(c.openTrs, tr)
	}
	if err != nil {
		s.ctr.Errors.Inc()
		writeError(c.w, err.Error())
		tr.SetError()
		c.startNs = 0
		return false
	}
	v := &verbs[vi]
	if c.startNs == 0 {
		c.startNs = obs.Nanotime()
	}
	c.tc.Command(vi)
	insert := v.flags&vInsertGate != 0 && len(cmd.Args) > 1
	if insert {
		c.tc.AddKeys(len(cmd.Args) - 1)
	}
	if c.batch.sampled(vi, line) && insert {
		// Runs 1-in-TrafficSample, so the allocation is off the common path.
		s.reg.noteHot([]byte(cmd.Args[0]), appendKeys(nil, cmd.Args[1:]))
	}
	if v.flags&vTakeover == 0 {
		c.dispatch(v, cmd)
	}
	sp.End()
	c.observe(vi, line, obs.Nanotime())
	if v.flags&vTakeover != 0 {
		// The command is counted and timed up to here; the replies ahead
		// of it go out, the idle deadline comes off (a replication
		// channel manages its own, a silent monitor is healthy), and the
		// handler owns the connection until it ends.
		if c.commit() == nil {
			c.ir.disarm()
			c.dispatch(v, cmd)
		}
		return true
	}
	return c.quit
}

// testPanic, when set by a test before the server starts, is called
// with each slow-path command so the per-connection panic containment
// can be exercised without shipping a crash-on-demand wire command.
var testPanic func(Command)

// dispatch runs one command under admission control and writes its
// reply. With Config.MaxInflight set, at most that many commands
// execute at once across all connections; a command that cannot get a
// slot within the command timeout is answered -ERR BUSY instead of
// queueing without bound.
func (c *conn) dispatch(v *verb, cmd Command) {
	s := c.s
	if ad := s.admit; ad != nil && v.flags&vNoAdmit == 0 {
		if !ad.tryAcquire() {
			ok, draining := ad.await(s.cfg.CommandTimeout, s.done)
			if draining {
				c.quit = true
				return
			}
			if !ok {
				s.ctr.BusyRejects.Inc()
				writeError(c.w, "BUSY too many in-flight commands; retry")
				return
			}
		}
		defer ad.release() // also on a panic, which handleConn recovers
	}
	s.ctr.Commands.Inc()
	if testPanic != nil {
		testPanic(cmd)
	}
	if err := c.run(v, cmd); err != nil {
		s.ctr.Errors.Inc()
		writeError(c.w, err.Error())
		c.tr.SetError() // nil-safe; errored traces are pinned in the ring
	}
}

// run takes cmd through its row: the gates the row names, its arity,
// then the handler. A handler that changes logged state does so through
// mutate, or checkpoint for a whole-state replacement.
func (c *conn) run(v *verb, cmd Command) error {
	s := c.s
	if v.run == nil {
		return fmt.Errorf("unknown command %q", cmd.Name)
	}
	if err := s.gate(v.flags); err != nil {
		return err
	}
	if v.flags&(vMutates|vInsertGate) == vMutates {
		// The set of sketches is about to change: re-measure the memory
		// budget on the way out rather than at the evaluator's next tick.
		defer s.evalOverload()
	}
	if n := len(cmd.Args); n < v.min || v.max > 0 && n > v.max {
		return fmt.Errorf("%s: want %s", v.name, v.usage[len(v.name)+1:])
	}
	return v.run(c, cmd)
}

// gate refuses a command its row gates: client mutations on a replica
// (the replication apply path does not pass through here — it is the one
// writer a replica allows), sketch allocation at the refuse_create
// overload rung and above, inserts at refuse_insert. Queries,
// SKETCH.CARD, INFO and replication are never gated: a squeezed node
// keeps answering from the state it has.
func (s *Server) gate(f verbFlags) error {
	if f&vWriteGate != 0 {
		if addr := s.primaryAddr(); addr != "" {
			return fmt.Errorf("READONLY replica of %s; mutations go to the primary", addr)
		}
	}
	lvl := s.overloadLevel()
	if f&vAllocGate != 0 && lvl >= overRefuseCreate {
		s.ctr.RefusedCreates.Inc()
		return fmt.Errorf("OOM memory budget exceeded (%s); refusing new sketch allocations", lvl)
	}
	if f&vInsertGate != 0 && lvl >= overRefuseInsert {
		s.ctr.OOMInserts.Inc()
		return fmt.Errorf("OOM memory budget exceeded; inserts refused (queries still served)")
	}
	return nil
}

// connLats is one connection's latency accumulators, one LocalHist per
// verb actually used, allocated lazily. Owned by the connection
// goroutine; only flush touches shared state.
type connLats struct {
	verbs   [numVerbs]*obs.LocalHist
	pending int
}

// flush merges every accumulator into the shared per-verb histograms.
func (c *connLats) flush(s *Server) {
	if c.pending == 0 {
		return
	}
	for i, l := range c.verbs {
		if l != nil {
			l.Flush(s.verbHist[i])
		}
	}
	c.pending = 0
}

// observe feeds the command that ended at endNs into the latency
// accumulator of its verb (unknown names share the OTHER bucket) and,
// past the configured threshold, into the slow-query log with the
// client's remote address and the request line as sent. The slow-query
// check sees every command's exact duration; only the histogram merge is
// deferred. Fast-path commands are never traced, so for them c.tr is
// nil: no exemplar, no trace ID.
func (c *conn) observe(vi int, line []byte, endNs int64) {
	s := c.s
	d := time.Duration(endNs - c.startNs)
	c.startNs = 0
	if c.r.Buffered() > 0 {
		c.startNs = endNs
	}
	l := c.lats.verbs[vi]
	if l == nil {
		l = &obs.LocalHist{}
		c.lats.verbs[vi] = l
	}
	l.Observe(d)
	if c.tr != nil {
		// A sampled command becomes its verb's histogram exemplar, so
		// /metrics can point at a concrete retained trace.
		s.exemplars[vi].Store(&traceExemplar{id: c.tr.ID(), dur: d})
	}
	// A client that pipelines forever without draining never hits the
	// batch-end flush, so cap the unflushed backlog here.
	if c.lats.pending++; c.lats.pending >= obs.FlushLimit {
		c.lats.flush(s)
	}
	if t := s.cfg.SlowThreshold; t > 0 && d >= t {
		// At the shed_slowlog overload rung the ring stops absorbing
		// rendered command text; the counter still ticks so the drop is
		// visible, not silent.
		if s.over.slowShed.Load() {
			s.ctr.SlowlogDropped.Inc()
			return
		}
		s.slow.Push(obs.Command{Time: time.Now(), Dur: d, Addr: c.addr, Line: renderLine(line), TraceID: c.tr.ID()})
		s.ctr.SlowCommands.Inc()
		if s.logger.Enabled(context.TODO(), slog.LevelWarn) {
			s.logger.Warn("slow command", "verb", verbs[vi].name, "duration", d.String())
		}
	}
}

// renderLine renders a request line as sent for the slow-query log and
// MONITOR, bounded so a 128-key INSERT doesn't bloat the ring.
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

func (c *conn) cmdPing(Command) error {
	writeSimple(c.w, "PONG")
	return nil
}

func (c *conn) cmdQuit(Command) error {
	writeSimple(c.w, "OK")
	c.quit = true
	return nil
}

func (c *conn) cmdCreate(cmd Command) error {
	s, name := c.s, cmd.Args[0]
	if !ValidName(name) {
		return fmt.Errorf("invalid sketch name %q", name)
	}
	kv, err := ParseKV(cmd.Args[2:])
	if err != nil {
		return err
	}
	// The arrays are allocated before mutate's ordering point; the record
	// keeps the parameter tokens, so replay builds an identical sketch.
	sk, err := s.reg.Build(name, cmd.Args[1], kv)
	if err != nil {
		return err
	}
	if err := c.batch.logText(c.tr, []byte("SKETCH.CREATE "+strings.Join(cmd.Args, " ")), func() error {
		return s.reg.Add(name, sk)
	}); err != nil {
		return err
	}
	writeSimple(c.w, "OK")
	return nil
}

func (c *conn) cmdDrop(cmd Command) error {
	s := c.s
	if err := c.batch.logText(c.tr, []byte("SKETCH.DROP "+cmd.Args[0]), func() error {
		return s.reg.Drop(cmd.Args[0])
	}); err != nil {
		return err
	}
	writeSimple(c.w, "OK")
	return nil
}

// cmdInsert serves both insert verbs — SKETCH.INSERT and its batch
// alias MINSERT — on the slow path (sampled commands and anything the
// fast path refused). The batch was applied before the command ran, so
// the command's keys become its one group and go through the batch's
// own insertGroups: the same insert record the fast path logs — the
// parsed uint64 keys, so replay is exact without depending on how the
// original token hashed.
func (c *conn) cmdInsert(cmd Command) error {
	b, n := &c.batch, len(cmd.Args)-1
	if _, err := c.s.reg.Get(cmd.Args[0]); err != nil {
		return err
	}
	g := b.add([]byte(cmd.Args[0]))
	g.keys = appendKeys(g.keys, cmd.Args[1:])
	if err := b.insertGroups(c.tr); err != nil {
		return err
	}
	c.s.ctr.Inserts.Add(int64(n))
	writeInt(c.w, int64(n))
	return nil
}

func (c *conn) cmdQuery(cmd Command) error {
	sk, err := c.s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	v, err := sk.Query(ParseKey(cmd.Args[1]))
	if err != nil {
		return err
	}
	writeInt(c.w, v)
	return nil
}

func (c *conn) cmdCard(cmd Command) error {
	sk, err := c.s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	v, err := sk.Cardinality()
	if err != nil {
		return err
	}
	writeFloat(c.w, v)
	return nil
}

// cmdSave and cmdLoad take the snapshot file name from their last
// argument: the second when given, otherwise the sketch name itself.
func (c *conn) cmdSave(cmd Command) error {
	s := c.s
	sk, err := s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	path, err := s.snapshotPath(cmd.Args[len(cmd.Args)-1])
	if err != nil {
		return err
	}
	// Sealed + atomic: a concurrent crash leaves either the previous
	// file or the new one, and a later load verifies the checksum.
	if _, err := writeSketchFile(s.fs, path, sk, nil); err != nil {
		return err
	}
	s.ctr.SnapsSaved.Inc()
	writeSimple(c.w, "OK")
	return nil
}

func (c *conn) cmdLoad(cmd Command) error {
	s, name := c.s, cmd.Args[0]
	if s.cfg.SyncReplicas > 0 {
		return fmt.Errorf("SKETCH.LOAD is not replicated; refused while sync-replicas is %d", s.cfg.SyncReplicas)
	}
	if !ValidName(name) {
		return fmt.Errorf("invalid sketch name %q", name)
	}
	path, err := s.snapshotPath(cmd.Args[len(cmd.Args)-1])
	if err != nil {
		return err
	}
	sk, err := s.loadSketchFile(path)
	if err != nil {
		return err
	}
	// A load replaces whole-sketch state, which the record log cannot
	// express; with a WAL it checkpoints before acknowledging, so the
	// loaded state is durable and replay stays consistent.
	if err := s.checkpoint(true, func() { s.reg.Put(name, sk) }); err != nil {
		return err
	}
	s.ctr.SnapsLoaded.Inc()
	writeSimple(c.w, "OK")
	return nil
}

// cmdSlowlog serves the slow-query ring: SLOWLOG [GET [n] | LEN |
// RESET]. Bare SLOWLOG means GET. Entries come back newest-first, one
// key=value line each; times are RFC 3339 with millisecond precision.
func (c *conn) cmdSlowlog(cmd Command) error {
	s, w := c.s, c.w
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
		entries := s.slow.Newest()
		if n >= 0 && n < len(entries) {
			entries = entries[:n]
		}
		lines := make([]string, len(entries))
		for i, e := range entries {
			// trace= links the entry to TRACE GET <id>; "-" means the
			// command was not sampled. Slow traces are pinned in the
			// trace ring, so the id usually still resolves.
			tid := "-"
			if e.V.TraceID != 0 {
				tid = xtrace.FormatID(e.V.TraceID)
			}
			lines[i] = fmt.Sprintf("id=%d time=%s duration_us=%d addr=%s trace=%s command=%q",
				e.Seq, e.V.Time.UTC().Format("2006-01-02T15:04:05.000Z"),
				e.V.Dur.Microseconds(), e.V.Addr, tid, e.V.Line)
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
func (c *conn) cmdStats(cmd Command) error {
	s, w := c.s, c.w
	if cmd.Args[0] == "*" {
		infos := s.reg.List()
		lines := make([]string, len(infos))
		for i, in := range infos {
			st := in.Sketch.Stats()
			lines[i] = fmt.Sprintf("%s kind=%s shards=%d window=%d inserts=%d fill_ratio=%.4f cycle_position=%.4f young=%d perfect=%d aged=%d",
				in.Name, in.Sketch.Kind(), st.Shards, st.Window, in.Sketch.Inserts(),
				st.FillRatio(), st.CyclePosition, st.Young, st.Perfect, st.Aged)
		}
		writeArray(w, lines)
		return nil
	}
	sk, err := s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	st := sk.Stats()
	writeArray(w, []string{
		"kind=" + sk.Kind(),
		fmt.Sprintf("shards=%d", st.Shards),
		fmt.Sprintf("window=%d", st.Window),
		fmt.Sprintf("tcycle=%d", st.Tcycle),
		fmt.Sprintf("inserts=%d", sk.Inserts()),
		fmt.Sprintf("memory_bits=%d", sk.MemoryBits()),
		fmt.Sprintf("resident_bytes=%d", sk.ResidentBytes()),
		fmt.Sprintf("cells=%d", st.Cells),
		fmt.Sprintf("filled_cells=%d", st.Filled),
		fmt.Sprintf("fill_ratio=%.4f", st.FillRatio()),
		fmt.Sprintf("cycle_position=%.4f", st.CyclePosition),
		fmt.Sprintf("young_cells=%d", st.Young),
		fmt.Sprintf("perfect_cells=%d", st.Perfect),
		fmt.Sprintf("aged_cells=%d", st.Aged),
	})
	return nil
}

// cmdAudit serves the online accuracy auditor: SKETCH.AUDIT <name>
// returns one key=value line per field (enabled=false when auditing is
// off), SKETCH.AUDIT <name> RESET restarts the measurement in place,
// and SKETCH.AUDIT * returns one summary line per audited sketch. The
// phase_are/phase_obs lines are the error-vs-cleaning-cycle-phase
// profile: 16 comma-separated buckets spanning one Tcycle sweep.
func (c *conn) cmdAudit(cmd Command) error {
	s, w := c.s, c.w
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

func (c *conn) cmdInfo(Command) error {
	s := c.s
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
	clBytesIn, clBytesOut, clMonitors := s.clients.Totals()
	lines = append(lines,
		fmt.Sprintf("clients_connected=%d", s.clients.Count()),
		fmt.Sprintf("clients_monitor=%d", clMonitors),
		fmt.Sprintf("clients_bytes_in=%d", clBytesIn),
		fmt.Sprintf("clients_bytes_out=%d", clBytesOut),
		fmt.Sprintf("traffic_sample=%d", s.sample.Traffic.Every()),
		fmt.Sprintf("traffic_sampled_total=%d", s.sample.Traffic.Sampled()),
		fmt.Sprintf("monitor_dropped_total=%d", s.hub.Dropped()))
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
		cps := float64(s.ctr.Commands.Value()) / uptime
		lines = append(lines, fmt.Sprintf("commands_per_sec=%.1f", cps))
	}
	for _, r := range s.ctrRows {
		lines = append(lines, fmt.Sprintf("%s=%d", r.Name, r.C.Value()))
	}
	writeArray(c.w, lines)
	return nil
}

func (c *conn) cmdList(Command) error {
	infos := c.s.reg.List()
	lines := make([]string, len(infos))
	for i, in := range infos {
		sk := in.Sketch
		lines[i] = fmt.Sprintf("%s kind=%s shards=%d window=%d inserts=%d memory_kb=%.1f",
			in.Name, sk.Kind(), sk.Shards(), sk.window, sk.Inserts(), float64(sk.MemoryBits())/8192)
	}
	writeArray(c.w, lines)
	return nil
}
