package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"time"

	"she"
	"she/internal/obs"
	"she/internal/obs/traffic"
	"she/internal/obs/xtrace"
	"she/internal/wal"
)

// batchMaxKeys bounds the keys a connection may buffer before the batch
// is force-applied. It caps per-connection memory (8 bytes per key, and
// with a WAL 8 more for its insert record) and the latency between a
// buffered optimistic reply and the group commit that releases it.
const batchMaxKeys = 16384

// syncWriter sits between the reply bufio.Writer and the socket, so
// that no reply byte reaches the client before the barrier has passed —
// not even when the bufio.Writer auto-flushes mid-batch because a deeply
// pipelined client overflowed it. The drain-point commit passes the
// barrier itself and then flushes, so there this one is a no-op dirty
// check. Write is also where the write deadline is armed: the only place
// reply bytes reach the socket, whether a flush or a reply larger than
// the buffer sent them, so no write can run under a stale deadline.
//
// PSYNC disarms it: the replication stream must not wait for an
// acknowledgement from the very replica whose stream would be blocked
// behind the barrier. Owned by the connection goroutine.
type syncWriter struct {
	s     *Server
	conn  net.Conn
	armed bool
	end   wal.Cursor // of the last record logged since the last barrier; zero for none
}

// barrier is the one durability barrier, passed on both routes a reply
// takes to the socket: with a WAL, a buffered acknowledgement must not
// reach the client before the record it acknowledges reaches the disk,
// and with Config.SyncReplicas set it additionally waits until that
// many replicas have acknowledged the connection's own last record
// (not the log's tip, which a checkpoint leaves where no replica can
// ack it) — the semi-synchronous half of the zero-acked-loss failover
// guarantee. A batch that logged nothing never waits.
//
// trs holds the batch's sampled traces; each gets a fsync_wait span
// around the group-commit sync (which amortises every command in the
// batch) and a replack_wait span around the replica wait. Clock reads
// only happen when at least one command in the batch was sampled.
func (b *syncWriter) barrier(trs []*xtrace.Trace) error {
	s := b.s
	if !b.armed || s.wal == nil {
		return nil
	}
	var startNs int64
	if len(trs) > 0 {
		startNs = obs.Nanotime()
	}
	if err := s.wal.Sync(); err != nil {
		s.ctr.WALErrors.Inc()
		return fmt.Errorf("wal sync failed: %w", err)
	}
	startNs = spanAll(trs, "fsync_wait", startNs)
	if !b.end.IsZero() && s.cfg.SyncReplicas > 0 {
		if err := s.tracker.WaitAck(b.end, s.cfg.SyncReplicas, s.cfg.SyncReplicaTimeout, s.done); err != nil {
			s.ctr.ReplSyncTimeouts.Inc()
			return err
		}
		spanAll(trs, "replack_wait", startNs)
	}
	b.end = wal.Cursor{}
	return nil
}

// spanAll adds the span name, from startNs to now, to every trace and
// returns now; with no trace it does not read the clock.
func spanAll(trs []*xtrace.Trace, name string, startNs int64) (nowNs int64) {
	if len(trs) == 0 {
		return 0
	}
	nowNs = obs.Nanotime()
	for _, t := range trs {
		t.AddSpan(name, startNs, nowNs)
	}
	return nowNs
}

func (b *syncWriter) Write(p []byte) (int, error) {
	if err := b.barrier(nil); err != nil {
		return 0, err
	}
	if d := b.s.cfg.WriteTimeout; d > 0 {
		b.conn.SetWriteDeadline(time.Now().Add(d))
	}
	return b.conn.Write(p)
}

// insertBuf is the reusable memory of one InsertBatch call made
// outside a connection batch — WAL replay's and a follower's: the keys
// decoded from an insert record and the shard-partition scratch.
type insertBuf struct {
	keys []uint64
	sc   she.BatchScratch
}

// appendKeys parses toks as keys onto dst.
func appendKeys(dst []uint64, toks []string) []uint64 {
	for _, tok := range toks {
		dst = append(dst, ParseKey(tok))
	}
	return dst
}

// insertGroup accumulates one sketch's parsed keys within a batch, by
// name (a copy: the read buffer is recycled on the next ReadSlice), and
// their insert record once applied; every backing array is reused.
type insertGroup struct {
	name []byte
	keys []uint64
	rec  []byte
}

// connBatch is one connection's batch engine: the zero-allocation fast
// path for SKETCH.INSERT and MINSERT lines and for the two read verbs,
// SKETCH.QUERY and SKETCH.CARD. Inserts are scanned in one pass (scanLine),
// grouped by target sketch, and held until a drain point (input buffer
// empty, a read, a slow-path command, the batchMaxKeys cap, or
// reply-buffer pressure); applying them takes the log-order lock (ordMu,
// only with a WAL) once and the WAL lock once (AppendBatch) for the whole
// batch, and one admission slot covers every fast command up to the
// drain. Insert replies are written optimistically at enqueue — safe
// because they are buffered behind the group commit (and the syncWriter
// barrier) and the WAL is fail-stop: a batch that cannot be made
// durable kills the connection before any of its replies escape. A read
// is answered after the inserts ahead of it are applied, so its reply
// sits behind the same barrier.
//
// Everything here is owned by the connection goroutine.
type connBatch struct {
	s        *Server
	bw       *syncWriter     // the connection's barrier, told where its records end
	tc       *traffic.Client // this connection's accounting record
	addr     string          // rendered remote address, for MONITOR frames
	groups   []insertGroup
	ngroups  int
	cmds     int // insert commands whose keys are pending
	nkeys    int // pending keys across all groups
	admitted bool
	hot      bool // the current line was sampled for traffic

	// Fast commands handled since the last settle, per verb and in
	// total, the keys they carried and the latest verb: commands_total
	// and the connection's CLIENT LIST row move once per drain, not per
	// command.
	counts  [numVerbs]uint64
	handled int
	keys    int
	last    int

	kbuf    []uint64         // the line being scanned: its keys, at most MaxArgs-2
	sc      she.BatchScratch // shard-partition scratch for InsertBatch
	scratch []byte           // reply rendering buffer
	recs    [][]byte         // the records mutate logs
	ends    []wal.Cursor     // their end cursors
}

// tryFast attempts to handle one request line (terminator stripped) on
// the batch fast path. It returns handled=false — leaving the batch
// intact for the caller to apply before taking the slow path — on any
// deviation from the plain shape of the four verbs it serves: non-ASCII
// or control bytes, too many tokens, another verb, a wrong argument
// count, an unknown sketch, a sketch kind that does not answer the
// verb, admission-slot exhaustion and, for inserts, a replica role or
// an engaged insert-refusal rung. The slow path reproduces the exact
// error text, counters and trace semantics for all of those, and is the
// only place an error reply is rendered. vi is the handled command's
// verb index; a non-nil err (WAL failure during a forced mid-batch
// apply) is terminal for the connection.
func (b *connBatch) tryFast(line []byte, w *bufio.Writer) (handled bool, vi int, err error) {
	s := b.s
	vi, name, keys, ok := scanLine(line, b.kbuf[:0])
	if !ok {
		return false, 0, nil
	}
	b.kbuf = keys // keep the (possibly grown) backing array
	if vi == verbQuery || vi == verbCard {
		return b.read(vi, name, keys, line, w)
	}
	if s.isReplica.Load() {
		return false, 0, nil // slow path renders the READONLY refusal
	}
	if s.overloadLevel() >= overRefuseInsert {
		return false, 0, nil // slow path counts and renders the OOM refusal
	}
	if b.nkeys >= batchMaxKeys {
		if err := b.apply(); err != nil {
			return true, vi, err
		}
	}
	if !b.admit() {
		return false, 0, nil // slow path waits for a slot or answers BUSY
	}
	g := b.group(name)
	if g == nil {
		return false, 0, nil // unknown sketch: slow path renders the error
	}
	// Nothing below declines: the line's keys join the batch whole.
	g.keys = append(g.keys, keys...)
	b.nkeys += len(keys)
	b.cmds++
	b.keys += len(keys)
	b.count(vi)
	if b.sampled(vi, line) {
		s.reg.noteHot(name, keys)
	}
	// The reply is buffered before the batch is applied. If the buffer
	// is nearly full, the write below could auto-flush — and the
	// syncWriter barrier can only vouch for records that exist — so
	// apply first. ":<n>\n" with n ≤ 127 keys is at most 5 bytes.
	if w.Available() < 8 {
		if err := b.apply(); err != nil {
			return true, vi, err
		}
	}
	b.scratch = strconv.AppendInt(append(b.scratch[:0], ':'), int64(len(keys)), 10)
	b.scratch = append(b.scratch, '\n')
	w.Write(b.scratch) // write errors surface at the next flush
	return true, vi, nil
}

// read serves SKETCH.QUERY name key and SKETCH.CARD name as scanned.
// The inserts ahead of the read are applied first — request order and
// read-your-writes hold, and with a WAL their records exist, so the
// syncWriter barrier keeps the reply behind their fsync.
func (b *connBatch) read(vi int, name []byte, keys []uint64, line []byte, w *bufio.Writer) (handled bool, _ int, err error) {
	s := b.s
	sk := s.reg.GetBytes(name)
	if sk == nil {
		return false, 0, nil // unknown sketch: slow path renders the error
	}
	if err := b.applyInserts(); err != nil {
		return true, vi, err
	}
	if !b.admit() {
		return false, 0, nil
	}
	if vi == verbQuery {
		v, qerr := sk.Query(keys[0])
		if qerr != nil {
			return false, 0, nil // hll: slow path renders the error
		}
		b.scratch = strconv.AppendInt(append(b.scratch[:0], ':'), v, 10)
	} else {
		v, cerr := sk.Cardinality()
		if cerr != nil {
			return false, 0, nil // not an hll: slow path renders the error
		}
		b.scratch = strconv.AppendFloat(append(b.scratch[:0], '+'), v, 'g', -1, 64)
	}
	b.scratch = append(b.scratch, '\n')
	b.count(vi)
	b.sampled(vi, line)
	// A reply the client can see is already counted: settle before a
	// write that would flush, so a pipeline that never drains still
	// moves commands_total and its CLIENT LIST row.
	if w.Available() < len(b.scratch) {
		b.settle()
	}
	w.Write(b.scratch) // write errors surface at the next flush
	return true, vi, nil
}

// sampled reports whether the command's line was sampled for traffic,
// fast path or slow. A sampled command becomes a MONITOR frame, but only
// when someone is subscribed (rendering the line costs); a sampled
// insert's caller then feeds its keys to its sketch's hot-key track.
func (b *connBatch) sampled(vi int, line []byte) bool {
	if !b.hot {
		return false
	}
	if h := &b.s.hub; h.Wants() {
		h.Publish(b.addr, renderLine(line))
	}
	return true
}

// admit takes the batch's admission slot if it does not hold one: one
// slot covers every fast command up to the next drain, where apply
// releases it — and apply always runs before the connection blocks
// reading. False means no slot is free.
func (b *connBatch) admit() bool {
	if ad := b.s.admit; ad != nil && !b.admitted {
		if !ad.tryAcquire() {
			return false
		}
		b.admitted = true
	}
	return true
}

// count notes one handled fast command for the next settle.
func (b *connBatch) count(vi int) {
	b.counts[vi]++
	b.handled++
	b.last = vi
}

// settle moves the fast commands handled since the last settle into
// commands_total and the connection's accounting record: a handful of
// atomic adds and one clock read amortized over the whole pipeline,
// keeping CLIENT LIST accurate without per-command cost.
func (b *connBatch) settle() {
	if b.handled == 0 {
		return
	}
	b.s.ctr.Commands.Add(int64(b.handled))
	b.tc.BatchSettle(b.counts[:], b.last, uint64(b.keys))
	clear(b.counts[:])
	b.handled, b.keys = 0, 0
}

// group returns the batch's accumulator for the named sketch, or nil
// when its first command in the batch names no registered sketch; the
// keys' sketch itself is resolved when the batch applies.
func (b *connBatch) group(name []byte) *insertGroup {
	for i := 0; i < b.ngroups; i++ {
		g := &b.groups[i]
		if bytes.Equal(g.name, name) {
			return g
		}
	}
	if b.s.reg.GetBytes(name) == nil {
		return nil
	}
	return b.add(name)
}

// add opens an empty group for the named sketch after the batch's
// others.
func (b *connBatch) add(name []byte) *insertGroup {
	if b.ngroups == len(b.groups) {
		b.groups = append(b.groups, insertGroup{})
	}
	g := &b.groups[b.ngroups]
	b.ngroups++
	g.name = append(g.name[:0], name...)
	g.keys = g.keys[:0]
	return g
}

// apply drains the batch: pending inserts are applied, the handled
// commands are settled, and the admission slot is released. Safe to
// call with an empty batch.
func (b *connBatch) apply() error {
	err := b.applyInserts()
	b.settle()
	b.release()
	return err
}

// release gives the batch's admission slot back.
func (b *connBatch) release() {
	if b.admitted {
		b.s.admit.release()
		b.admitted = false
	}
}

// applyInserts inserts every buffered key into its sketch and (with a
// WAL) logs them as insert records in one batched append. A WAL
// failure is returned — and is terminal for the connection, since
// optimistic replies may be buffered — but the WAL is sticky-failed,
// so the commit path reports it to the client and no reply escapes.
func (b *connBatch) applyInserts() error {
	s := b.s
	if b.cmds == 0 {
		return nil
	}
	s.ctr.BatchApplies.Inc()
	s.ctr.BatchCommands.Add(int64(b.cmds))
	s.ctr.BatchKeys.Add(int64(b.nkeys))
	s.ctr.Inserts.Add(int64(b.nkeys))
	return b.insertGroups(nil)
}

// insertGroups empties the batch through the server's apply-then-log
// path (mutate): each group's keys go to insertRun and, with a WAL, into
// one insert record (insertrecord.go bounds its size). A group whose
// sketch was dropped since its lines were answered is skipped, neither
// inserted nor logged, as if the drop had come after it. A slow-path
// insert, traced by tr, runs its one group through here too, so both
// paths log the same records.
func (b *connBatch) insertGroups(tr *xtrace.Trace) error {
	defer func() { b.ngroups, b.cmds, b.nkeys = 0, 0, 0 }()
	return b.mutate(tr, func() ([][]byte, error) {
		b.recs = b.recs[:0]
		for i := 0; i < b.ngroups; i++ {
			g := &b.groups[i]
			if b.s.insertRun(g.name, g.keys, &b.sc) && b.s.wal != nil {
				g.rec = AppendInsertRecord(g.rec[:0], g.name, g.keys)
				b.recs = append(b.recs, g.rec)
			}
		}
		return b.recs, nil
	})
}

// logText runs a slow-path command's registry change through mutate
// and, once change has applied, logs the command's text record rec.
func (b *connBatch) logText(tr *xtrace.Trace, rec []byte, change func() error) error {
	return b.mutate(tr, func() ([][]byte, error) {
		if err := change(); err != nil {
			return nil, err
		}
		b.recs = append(b.recs[:0], rec)
		return b.recs, nil
	})
}

// mutate runs apply through the server's one apply-then-log path with
// the batch's append scratch, and tells the barrier where the records
// it logged end. A slow-path command borrows the batch this way: the
// batch was applied before the command ran.
func (b *connBatch) mutate(tr *xtrace.Trace, apply func() ([][]byte, error)) error {
	end, err := b.s.mutate(tr, &b.ends, apply)
	if !end.IsZero() {
		b.bw.end = end
	}
	return err
}
