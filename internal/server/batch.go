package server

import (
	"bufio"
	"bytes"
	"net"
	"strconv"
	"sync"
	"time"

	"she"
	"she/internal/obs/traffic"
)

// defaultBatchMaxKeys bounds the keys a connection may buffer before
// the batch is force-applied, when Config.BatchMaxKeys is zero. It
// caps per-connection memory (8 bytes per key plus the WAL record
// render) and the latency between a buffered optimistic reply and the
// group commit that releases it.
const defaultBatchMaxKeys = 16384

// maxRecordKeys is the keys per MINSERT WAL record: verb + name + keys
// must fit MaxArgs tokens so replay goes through ParseCommand
// unchanged.
const maxRecordKeys = MaxArgs - 2

func (s *Server) batchMaxKeys() int {
	if s.cfg.BatchMaxKeys > 0 {
		return s.cfg.BatchMaxKeys
	}
	return defaultBatchMaxKeys
}

// syncWriter sits between the reply bufio.Writer and the socket,
// enforcing ack-after-durability even when the bufio.Writer
// auto-flushes mid-batch because a deeply pipelined client overflowed
// it: before any buffered reply byte reaches the client, the WAL is
// synced and — for a mutating batch under semi-synchronous
// replication — the replica acknowledgement barrier has passed. The
// ordinary drain-point commit syncs first and then flushes, so there
// this barrier is a no-op dirty check.
//
// It is also where the write deadline is armed: Write is the only place
// reply bytes reach the socket, whether a flush or a reply larger than
// the buffer sent them, so no write can run under a stale deadline.
//
// servePSYNC disarms it: the replication stream must not wait for an
// acknowledgement from the very replica whose stream would be blocked
// behind the barrier.
//
// Owned by the connection goroutine; wrote tracks whether the current
// batch contains mutations (the semi-sync wait never blocks a
// read-only batch).
type syncWriter struct {
	s     *Server
	conn  net.Conn
	armed bool
	wrote bool
}

func (b *syncWriter) Write(p []byte) (int, error) {
	if b.armed && b.s.wal != nil {
		if err := b.s.wal.Sync(); err != nil {
			return 0, err
		}
		if b.wrote && b.s.cfg.SyncReplicas > 0 {
			pos := b.s.wal.Position()
			if err := b.s.tracker.WaitAck(pos, b.s.cfg.SyncReplicas, b.s.syncReplicaTimeout(), b.s.done); err != nil {
				return 0, err
			}
			b.wrote = false
		}
	}
	if d := b.s.cfg.WriteTimeout; d > 0 {
		b.conn.SetWriteDeadline(time.Now().Add(d))
	}
	return b.conn.Write(p)
}

// insertBuf is the reusable memory of one InsertBatch call made from
// text tokens: the parsed keys and the shard-partition scratch.
type insertBuf struct {
	keys []uint64
	sc   she.BatchScratch
}

// insertBufs serves the insert paths that have no connection batch to
// borrow buffers from: the slow-path verbs, WAL replay and follower
// apply.
var insertBufs = sync.Pool{New: func() any { return new(insertBuf) }}

// insertTokens parses toks as keys and inserts them into sk as one
// batch. The returned keys are buf's, valid until buf is reused.
func (buf *insertBuf) insertTokens(sk *Sketch, toks []string) []uint64 {
	buf.keys = buf.keys[:0]
	for _, tok := range toks {
		buf.keys = append(buf.keys, ParseKey(tok))
	}
	sk.InsertBatch(buf.keys, &buf.sc)
	return buf.keys
}

// insertGroup accumulates one sketch's parsed keys within a batch.
// The name is a copy (the read buffer that produced it is recycled on
// the next ReadSlice); both backing arrays are reused across batches.
type insertGroup struct {
	sk   *Sketch
	name []byte
	keys []uint64
}

// connBatch is one connection's insert-batch engine: the zero-
// allocation fast path for SKETCH.INSERT and MINSERT lines. Inserts
// are tokenized without copying, grouped by target sketch, and held
// until a drain point (input buffer empty, a slow-path command, the
// BatchMaxKeys cap, or reply-buffer pressure); apply then pays one
// checkpoint-lock acquisition, one WAL lock acquisition (AppendBatch)
// and one admission slot for the whole batch. Replies are written
// optimistically at enqueue — safe because they are buffered behind
// the group commit (and the syncWriter barrier) and the WAL is
// fail-stop: a batch that cannot be made durable kills the connection
// before any of its replies escape.
//
// Everything here is owned by the connection goroutine.
type connBatch struct {
	s        *Server
	tc       *traffic.Client // this connection's accounting record
	addr     string          // rendered remote address, for MONITOR frames
	groups   []insertGroup
	ngroups  int
	cmds     int // commands enqueued in the current batch
	nkeys    int // keys across all groups
	inserts  int // SKETCH.INSERT commands among cmds (rest are MINSERT)
	admitted bool

	toks    [][]byte         // tokenizer backing array, reused per line
	sc      she.BatchScratch // shard-partition scratch for InsertBatch
	scratch []byte           // reply rendering buffer
	payload []byte           // flat WAL record build buffer
	recOff  []int            // record boundaries into payload
	recs    [][]byte         // per-record views of payload for AppendBatch
}

// tryFast attempts to handle one request line (terminator stripped) on
// the batch fast path. It returns handled=false — leaving the batch
// intact for the caller to apply before taking the slow path — on any
// deviation from the plain pipelined-insert shape: non-ASCII or
// control bytes, too many tokens, a verb other than
// SKETCH.INSERT/MINSERT, a missing key list, an unknown sketch, a
// replica role, an engaged insert-refusal rung, or admission-slot
// exhaustion. The slow path reproduces the exact error text, counters
// and trace semantics for all of those. vi is the handled command's
// verbIndex; a non-nil err (WAL failure during a forced mid-batch
// apply) is terminal for the connection.
func (b *connBatch) tryFast(line []byte, w *bufio.Writer, bw *syncWriter) (handled bool, vi int, err error) {
	s := b.s
	toks, ok := splitFast(line, b.toks)
	b.toks = toks // keep the (possibly grown) backing array
	if !ok || len(toks) < 3 {
		return false, 0, nil
	}
	switch {
	case eqVerb(toks[0], "MINSERT"):
		vi = verbMinsert
	case eqVerb(toks[0], "SKETCH.INSERT"):
		vi = verbInsert
	default:
		return false, 0, nil
	}
	if s.isReplica.Load() {
		return false, 0, nil // slow path renders the READONLY refusal
	}
	if s.overloadLevel() >= overRefuseInsert {
		return false, 0, nil // slow path counts and renders the OOM refusal
	}
	if b.nkeys >= s.batchMaxKeys() {
		if err := b.apply(); err != nil {
			return true, vi, err
		}
	}
	// One admission slot covers the whole batch: it is released by
	// apply, which always runs before the connection blocks reading.
	if s.admit != nil && !b.admitted {
		if !s.admit.tryAcquire() {
			return false, 0, nil // slow path waits for a slot or answers BUSY
		}
		b.admitted = true
	}
	g := b.group(toks[1])
	if g == nil {
		return false, 0, nil // unknown sketch: slow path renders the error
	}
	keys := toks[2:]
	for _, tok := range keys {
		g.keys = append(g.keys, parseKeyBytes(tok))
	}
	b.nkeys += len(keys)
	b.cmds++
	if vi == verbInsert {
		b.inserts++
	}
	bw.wrote = true
	// Self-telemetry: one atomic add per unsampled command (the
	// xtrace discipline); a sampled command feeds its parsed keys —
	// already sitting at the tail of the group's buffer — to the
	// hot-key tracker, and becomes a MONITOR frame only if someone is
	// actually watching (rendering the line costs).
	if s.traffic.Sampled() {
		s.traffic.NoteKeys(toks[1], g.keys[len(g.keys)-len(keys):])
		if s.traffic.Wants() {
			s.traffic.Publish(b.addr, commandVerbs[vi], renderLine(line))
		}
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
	b.scratch = strconv.AppendInt(b.scratch[:0], int64(len(keys)), 10)
	w.WriteByte(':')
	w.Write(b.scratch)
	w.WriteByte('\n') // write errors surface at the next flush
	return true, vi, nil
}

// group returns the batch's accumulator for the named sketch,
// resolving the registry only on the first command per sketch per
// batch; nil when no such sketch exists.
func (b *connBatch) group(name []byte) *insertGroup {
	for i := 0; i < b.ngroups; i++ {
		g := &b.groups[i]
		if bytes.Equal(g.name, name) {
			return g
		}
	}
	sk := b.s.reg.GetBytes(name)
	if sk == nil {
		return nil
	}
	if b.ngroups == len(b.groups) {
		b.groups = append(b.groups, insertGroup{})
	}
	g := &b.groups[b.ngroups]
	b.ngroups++
	g.sk = sk
	g.name = append(g.name[:0], name...)
	g.keys = g.keys[:0]
	return g
}

// apply drains the batch: every buffered key is inserted into its
// sketch and (with a WAL) logged as MINSERT records in one batched
// append, counters are settled, and the batch's admission slot is
// released. A WAL failure is returned — and is terminal for the
// connection, since optimistic replies may be buffered — but the WAL
// is sticky-failed, so the commit path reports it to the client and
// no reply escapes. Safe to call with an empty batch.
func (b *connBatch) apply() error {
	s := b.s
	if b.cmds == 0 {
		b.reset()
		return nil
	}
	s.cBatchApplies.Inc()
	s.cBatchCommands.Add(int64(b.cmds))
	s.cBatchKeys.Add(int64(b.nkeys))
	s.cCommands.Add(int64(b.cmds))
	s.cInserts.Add(int64(b.nkeys))
	// Per-connection accounting settles once per batch — a handful of
	// atomic adds amortized over the whole pipeline, keeping CLIENT
	// LIST accurate without per-command cost on the fast path.
	b.tc.BatchSettle(uint64(b.inserts), uint64(b.cmds-b.inserts),
		uint64(b.nkeys), verbInsert, verbMinsert)
	var err error
	if s.wal == nil {
		for i := 0; i < b.ngroups; i++ {
			g := &b.groups[i]
			g.sk.InsertBatch(g.keys, &b.sc)
		}
	} else {
		err = b.applyWAL()
	}
	b.reset()
	if err == nil && s.wal != nil {
		s.maybeCheckpoint()
	}
	return err
}

// applyWAL inserts the batch's keys and renders their MINSERT records
// — decimal keys, at most maxRecordKeys per record so replay fits
// ParseCommand's MaxArgs — under one shared checkpoint-lock
// acquisition, then appends them all in one WAL batch. The insert and
// the log ride the same lock hold, preserving the invariant that a
// checkpoint observes none or all of an apply-then-log pair.
func (b *connBatch) applyWAL() error {
	s := b.s
	b.payload = b.payload[:0]
	b.recOff = b.recOff[:0]
	s.chkMu.RLock()
	for i := 0; i < b.ngroups; i++ {
		g := &b.groups[i]
		keys := g.keys
		g.sk.InsertBatch(keys, &b.sc)
		for len(keys) > 0 {
			n := len(keys)
			if n > maxRecordKeys {
				n = maxRecordKeys
			}
			b.recOff = append(b.recOff, len(b.payload))
			b.payload = append(b.payload, "MINSERT "...)
			b.payload = append(b.payload, g.name...)
			for _, k := range keys[:n] {
				b.payload = append(b.payload, ' ')
				b.payload = strconv.AppendUint(b.payload, k, 10)
			}
			keys = keys[n:]
		}
	}
	b.recOff = append(b.recOff, len(b.payload))
	b.recs = b.recs[:0]
	for i := 0; i+1 < len(b.recOff); i++ {
		b.recs = append(b.recs, b.payload[b.recOff[i]:b.recOff[i+1]])
	}
	err := s.wal.AppendBatch(b.recs, nil)
	s.chkMu.RUnlock()
	if err != nil {
		s.cWALErrors.Inc()
		return err
	}
	s.cWALRecords.Add(int64(len(b.recs)))
	s.cWALBytes.Set(s.wal.BytesSinceCheckpoint())
	return nil
}

// reset clears the batch for reuse, keeping every backing array, and
// releases the admission slot.
func (b *connBatch) reset() {
	for i := 0; i < b.ngroups; i++ {
		b.groups[i].keys = b.groups[i].keys[:0]
		b.groups[i].sk = nil
	}
	b.ngroups = 0
	b.cmds = 0
	b.nkeys = 0
	b.inserts = 0
	if b.admitted {
		b.s.admit.release()
		b.admitted = false
	}
}
