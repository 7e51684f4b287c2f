package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"she/internal/obs"
	"she/internal/obs/xtrace"
	"she/internal/repl"
	"she/internal/wal"
)

// Replication: the server side of internal/repl. A primary serves
// PSYNC — full sync of the sketches sealed at the log tip, then a live
// tail of the WAL — and tracks replica acknowledgements; a replica
// runs a repl.Follower that applies the stream through the same
// replay path crash recovery uses, refuses client mutations, and can
// be promoted with REPLICAOF NO ONE. See internal/repl for the
// protocol and guarantees.

// replPingInterval is the primary's idle-channel heartbeat: it keeps
// the follower's read deadline fed and gives it a batch boundary to
// commit + acknowledge at even when no records flow.
const replPingInterval = time.Second

// replReadBudget bounds one ReadFrom batch streamed to a replica; a
// single record larger than it ships as a batch of its own.
const replReadBudget = 256 << 10

// primaryAddr returns the address this node replicates from, "" when
// it is a primary.
func (s *Server) primaryAddr() string {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.replPrimary
}

// currentFollower returns the running replication client, nil on a
// primary.
func (s *Server) currentFollower() *repl.Follower {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.follower
}

// startReplication begins replicating from addr, whose port must be one
// a follower can dial: any current follower stops, local state is handed
// to the follower's full-sync/catch-up logic, and mutations are refused
// until promotion.
func (s *Server) startReplication(addr string) error {
	if s.wal == nil {
		return fmt.Errorf("REPLICAOF requires a WAL (-wal): a replica's acks promise local durability")
	}
	if _, port, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("REPLICAOF: %w", err)
	} else if p, err := strconv.ParseUint(port, 10, 16); err != nil || p == 0 {
		return fmt.Errorf("REPLICAOF: bad port %q (want 1-65535)", port)
	}
	s.replMu.Lock()
	old := s.follower
	s.replPrimary = addr
	s.isReplica.Store(true)
	f := repl.NewFollower(repl.FollowerConfig{
		PrimaryAddr:      addr,
		ListenPort:       listenPort(s.ln),
		RetryInterval:    s.cfg.ReplRetryInterval,
		MaxRetryInterval: s.cfg.ReplMaxRetryInterval,
		Dial:             s.cfg.ReplDial,
		Logf: func(format string, args ...any) {
			s.logger.Info(fmt.Sprintf(format, args...))
		},
	}, &replTarget{s: s})
	s.follower = f
	s.replMu.Unlock()
	if old != nil {
		old.Stop()
	}
	go f.Run()
	s.logger.Info("replicating", "primary", addr)
	return nil
}

// promote turns a replica back into a primary (REPLICAOF NO ONE):
// replication stops and the node accepts mutations at its current
// position. A no-op on a node that is already primary.
func (s *Server) promote() {
	s.replMu.Lock()
	old := s.follower
	wasReplica := s.replPrimary != ""
	s.follower = nil
	s.replPrimary = ""
	s.replMu.Unlock()
	if old != nil {
		old.Stop() // first: a full sync it cuts short puts the replica's state back
	}
	s.replMu.Lock()
	s.isReplica.Store(s.follower != nil) // writes open; unless REPLICAOF came in between
	s.replMu.Unlock()
	if wasReplica {
		s.ctr.ReplPromotions.Inc()
		s.logger.Info("promoted to primary")
	}
}

// listenPort extracts the local listener's port for REPLCONF, 0 when
// unknown.
func listenPort(ln net.Listener) int {
	if ln == nil {
		return 0
	}
	if a, ok := ln.Addr().(*net.TCPAddr); ok {
		return a.Port
	}
	return 0
}

// cmdReplicaof handles REPLICAOF <host> <port> | NO ONE.
func (c *conn) cmdReplicaof(cmd Command) error {
	if strings.EqualFold(cmd.Args[0], "NO") && strings.EqualFold(cmd.Args[1], "ONE") {
		c.s.promote()
	} else if err := c.s.startReplication(net.JoinHostPort(cmd.Args[0], cmd.Args[1])); err != nil {
		return err
	}
	writeSimple(c.w, "OK")
	return nil
}

// cmdRole serves ROLE: one line of role identity, then detail lines —
// per-replica ack state on a primary, link state on a replica.
func (c *conn) cmdRole(Command) error {
	s := c.s
	if f := s.currentFollower(); f != nil {
		st := f.Status()
		lines := []string{
			"role=replica",
			"primary=" + st.PrimaryAddr,
			fmt.Sprintf("connected=%v", st.Connected),
			fmt.Sprintf("cursor=%d/%d/%d", st.Cursor.Gen, st.Cursor.Seg, st.Cursor.Off),
			fmt.Sprintf("full_syncs=%d", st.FullSyncs),
			fmt.Sprintf("reconnects=%d", st.Reconnects),
			fmt.Sprintf("applied_records=%d", st.AppliedRecs),
			fmt.Sprintf("consecutive_failures=%d", st.ConsecutiveFailures),
			fmt.Sprintf("next_retry_ms=%d", st.NextRetryDelay.Milliseconds()),
		}
		writeArray(c.w, lines)
		return nil
	}
	infos := s.tracker.Infos()
	lines := make([]string, 0, 1+len(infos))
	lines = append(lines, fmt.Sprintf("role=primary replicas=%d", len(infos)))
	for _, in := range infos {
		lines = append(lines, fmt.Sprintf(
			"replica addr=%s ack=%d/%d/%d lag_records=%d last_ack_ms=%d full_sync=%v",
			in.ID, in.Ack.Gen, in.Ack.Seg, in.Ack.Off,
			in.UnackedRecords(), time.Since(in.LastAck).Milliseconds(), in.FullSync))
	}
	writeArray(c.w, lines)
	return nil
}

// cmdReplconf records the listening port a replica advertises, for
// ROLE output and the replica label: a decimal port, 0 when the replica
// cannot tell (listenPort). Unknown options are accepted and ignored so
// the handshake stays forward-compatible.
func (c *conn) cmdReplconf(cmd Command) error {
	if len(cmd.Args) == 2 && strings.EqualFold(cmd.Args[0], "LISTENING-PORT") {
		if _, err := strconv.ParseUint(cmd.Args[1], 10, 16); err != nil {
			return fmt.Errorf("%s: bad port %q", cmd.Name, cmd.Args[1])
		}
		c.replPort = cmd.Args[1]
	}
	writeSimple(c.w, "OK")
	return nil
}

// cmdPsync turns a client connection into a replication channel; it
// owns the connection until the replica disconnects or the server
// stops. A refusal is the last line the connection carries.
func (c *conn) cmdPsync(cmd Command) error {
	s, w := c.s, c.w
	c.bw.armed = false // see syncWriter
	// CLIENT KILL must refuse the link from here on (slow replicas are
	// evicted via ReplicaMaxLagBytes, never by an operator racing the ack
	// cursor).
	c.tc.SetReplica()
	if s.wal == nil {
		return fmt.Errorf("PSYNC requires a WAL (-wal) on the primary")
	}
	if s.primaryAddr() != "" {
		return fmt.Errorf("this node is a replica; chained replication is not supported")
	}
	var cursor wal.Cursor
	if !(len(cmd.Args) == 1 && cmd.Args[0] == "?") {
		if len(cmd.Args) != 3 {
			return fmt.Errorf("PSYNC: want ? or gen seg off")
		}
		var err error
		if cursor, err = repl.ParseCursor(cmd.Args[0], cmd.Args[1], cmd.Args[2]); err != nil {
			return err
		}
	}

	id := c.addr
	if c.replPort != "" {
		if host, _, err := net.SplitHostPort(id); err == nil {
			id = net.JoinHostPort(host, c.replPort)
		}
	}

	rep, err := s.attachReplica(w, id, cursor)
	if err != nil {
		s.logger.Warn("psync refused", "replica", id, "err", err)
		return err
	}
	defer rep.Close()
	if err := w.Flush(); err != nil {
		return nil
	}
	s.logger.Info("replica attached", "replica", id, "cursor", rep.AckedCursor().String())
	err = s.streamToReplica(c.r, w, rep)
	if err != nil && !s.isDone() {
		s.logger.Warn("replica detached", "replica", id, "err", err)
	} else {
		s.logger.Info("replica detached", "replica", id)
	}
	return nil
}

// attachReplica decides CONTINUE vs FULLRESYNC and registers the
// replica in one hold of ordMu, so no checkpoint truncates its start
// before the tracker's retention floor protects it; then it writes the
// reply, and any snapshot files, into w. A full sync seals every
// sketch, syncs the log and starts the replica at its tip. Every append
// goes through mutate and the log rotates only inside AppendBatch or
// Checkpoint, so under ordMu the synced tip is the applied tip: the
// files hold exactly the records before the start cursor, and none a
// crash of this node could lose. A primary that never appended answers
// the zero cursor, so its follower full-syncs again if it reconnects
// before the first record — harmless: the registry is empty.
func (s *Server) attachReplica(w *bufio.Writer, id string, cursor wal.Cursor) (*repl.Replica, error) {
	var names []string
	var files [][]byte
	full := cursor.IsZero()
	rep, err := func() (*repl.Replica, error) {
		s.ordMu.Lock()
		defer s.ordMu.Unlock()
		if !full {
			_, _, err := s.wal.ReadFrom(cursor, 1, nil)
			if err != nil && err != wal.ErrCursorGone {
				return nil, err
			}
			full = err != nil // the cursor's segments were checkpointed away
		}
		if full {
			err := s.eachSketch(func(name string, sk *Sketch) error {
				data, err := sealSketch(sk)
				names, files = append(names, name), append(files, data)
				return err
			})
			if err == nil {
				err = s.wal.Sync()
			}
			if err != nil {
				return nil, err
			}
			cursor = s.wal.Position()
		}
		return s.tracker.Register(id, cursor, full), nil
	}()
	if err != nil {
		return nil, err
	}
	if !full {
		s.ctr.ReplPartialSyncs.Inc()
		fmt.Fprintf(w, "+CONTINUE %s\n", cursor)
		return rep, nil
	}
	s.ctr.ReplFullSyncs.Inc()
	fmt.Fprintf(w, "+FULLRESYNC %s %d\n", cursor, len(files))
	for i, data := range files {
		if err := repl.WriteSnapshotFile(w, names[i], data); err != nil {
			rep.Close()
			return nil, err
		}
	}
	w.WriteString("ENDSNAP\n")
	return rep, nil
}

// streamToReplica tails the WAL into the connection until it dies or
// the server stops. A concurrent goroutine consumes the follower's
// REPLACK lines into the tracker; it exits when the connection closes.
func (s *Server) streamToReplica(r *bufio.Reader, w *bufio.Writer, rep *repl.Replica) error {
	// acks holds this session's shipped, traced records until a REPLACK
	// covers them and closes their replack span.
	acks := obs.NewRing[tracedRec](ackTableSize, nil)
	ackErr := make(chan error, 1)
	go func() {
		for {
			c, recs, bytes, err := repl.ReadAck(r)
			if err != nil {
				ackErr <- err
				return
			}
			rep.Ack(c, recs, bytes)
			if covered := acks.TakeAll(func(p tracedRec) bool {
				return p.seg < c.Seg || (p.seg == c.Seg && p.off <= c.Off)
			}); covered != nil {
				now := obs.Nanotime()
				for _, p := range covered {
					p.tr.AddSpan("replack", p.shipNs, now)
				}
			}
		}
	}()

	cursor := rep.AckedCursor()
	ticker := time.NewTicker(replPingInterval)
	defer ticker.Stop()
	var tail wal.TailBuf // this stream's read buffer, reused by every ReadFrom
	for {
		// Grab the notify channel before reading: a sync landing between
		// the read and the wait closes this same channel, so no durable
		// byte waits for the next heartbeat.
		notify := s.wal.SyncNotify()
		recs, next, err := s.wal.ReadFrom(cursor, replReadBudget, &tail)
		if err != nil {
			return err
		}
		if len(recs) > 0 {
			var payloadBytes uint64
			// shipped collects this batch's traced records; the ship span
			// covers first write through flush, and the trace ID rides the
			// REC frame so the follower joins the same trace. Clock reads
			// and span work only happen when the ship table has entries.
			// Taking an entry consumes it: with several replicas only the
			// first ship traces — span bloat from N replicas is worse than
			// the loss.
			var shipped []tracedRec
			var shipStartNs int64
			for _, rec := range recs {
				var tid uint64
				if sh, ok := s.ship.TakeNewest(func(e tracedRec) bool {
					return e.seg == rec.End.Seg && e.off == rec.End.Off
				}); ok {
					if shipStartNs == 0 {
						shipStartNs = obs.Nanotime()
					}
					tid = sh.tr.ID()
					shipped = append(shipped, sh)
				}
				if err := repl.WriteRecord(w, rec.End, rec.Payload, tid); err != nil {
					return err
				}
				payloadBytes += uint64(len(rec.Payload))
			}
			if err := w.Flush(); err != nil {
				return err
			}
			if len(shipped) > 0 {
				endNs := obs.Nanotime()
				for _, sh := range shipped {
					sh.tr.AddSpan("repl_ship", shipStartNs, endNs)
					sh.shipNs = endNs
					acks.Push(sh)
				}
			}
			rep.NoteSent(uint64(len(recs)), payloadBytes)
			cursor = next
			// Slow-replica protection: a replica that takes records but
			// never acknowledges them pins WAL segments (checkpoint
			// retention) and stream buffers without bound. Past the
			// configured lag it is disconnected; it reconnects with its
			// cursor and resumes, or full-resyncs if the cursor was
			// checkpointed away in the meantime.
			if limit := s.cfg.ReplicaMaxLagBytes; limit > 0 {
				if lag := s.wal.DistanceBytes(rep.AckedCursor(), cursor); lag > limit {
					s.ctr.ReplSlowDrops.Inc()
					return fmt.Errorf("replica lagging %d bytes (limit %d); disconnecting", lag, limit)
				}
			}
			continue // drain the backlog before sleeping
		}
		cursor = next
		select {
		case <-notify:
		case <-ticker.C:
			if _, err := w.WriteString("PING\n"); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
		case err := <-ackErr:
			return err
		case <-s.done:
			return nil
		}
	}
}

func (s *Server) isDone() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// replTarget adapts the server to repl.Target: the follower applies
// the replicated stream through the same registry mutations and local
// WAL appends a client batch makes, so a replica is itself crash-safe —
// after a crash with the primary also gone, restarting it without
// -replicaof recovers every acknowledged record from its own log.
//
// The fields are the reused memory of one ApplyBurst. Only the one
// follower goroutine touches them, so no lock.
type replTarget struct {
	s      *Server
	prev   map[string]*Sketch // the registry a full sync in progress set aside
	buf    insertBuf
	logged [][]byte        // the burst's records that applied
	ends   []wal.Cursor    // their end cursors in this node's log
	open   []*xtrace.Trace // joined traces of the burst
}

// BeginFullSync sets the registry aside, by reference, and starts an
// empty one for the incoming snapshot. The checkpoint and log on disk
// stay as they are until EndFullSync, so a crash mid-transfer recovers
// the replica's previous state, and AbortFullSync puts that same state
// back in memory.
func (t *replTarget) BeginFullSync() error {
	t.prev = t.s.reg.Swap(make(map[string]*Sketch))
	return nil
}

// AbortFullSync restores the registry BeginFullSync set aside.
func (t *replTarget) AbortFullSync() {
	t.s.reg.Swap(t.prev)
	t.prev = nil
}

// SnapshotFile loads one streamed snapshot into the registry.
func (t *replTarget) SnapshotFile(name string, data []byte) error {
	if !ValidName(name) {
		return fmt.Errorf("invalid snapshot name %q", name)
	}
	sk, err := parseSnapshot(data)
	if err != nil {
		return fmt.Errorf("snapshot %s: %v", name, err)
	}
	t.s.reg.Put(name, sk)
	return nil
}

// EndFullSync takes the full sync's one checkpoint: the replica's own
// recovery starts from the transferred snapshot, not its older log.
func (t *replTarget) EndFullSync(start wal.Cursor) error {
	err := t.s.checkpoint(true, nil)
	if err == nil {
		t.prev = nil
	}
	return err
}

// ApplyBurst applies and logs the burst, then fsyncs the replica's WAL;
// only then does the follower acknowledge, which is what lets the
// primary's semi-synchronous commit treat an ack as "survives the
// replica crashing too".
//
// A record with a trace ID means the primary sampled its command: the
// replica joins the same trace — regardless of its own sampling rate —
// so TRACE GET <id> resolves on both nodes, with an apply span around
// the record and a commit_fsync span around the burst's fsync. The
// traces finish here: the ack about to go out is the event the
// primary's replack span measures.
func (t *replTarget) ApplyBurst(recs []repl.Record) error {
	s := t.s
	err := t.applyLogged(recs)
	if err == nil {
		var syncStartNs int64
		if len(t.open) > 0 {
			syncStartNs = obs.Nanotime()
		}
		err = s.wal.Sync()
		if len(t.open) > 0 {
			endNs := obs.Nanotime()
			for _, tr := range t.open {
				tr.AddSpan("commit_fsync", syncStartNs, endNs)
			}
		}
	}
	for _, tr := range t.open {
		if err != nil {
			tr.SetError()
		}
		tr.Finish()
	}
	t.open = t.open[:0]
	if err != nil {
		return err
	}
	s.ctr.ReplApplied.Add(int64(len(recs)))
	return nil
}

// applyLogged replays recs in order, exactly as crash recovery would,
// and appends them to the replica's own WAL in one batch: one pass
// through mutate, the path a client batch takes, so a checkpoint
// observes none or all of the burst. When a record fails to apply, the
// ones before it are still logged — they are in the sketches — and the
// error is returned.
func (t *replTarget) applyLogged(recs []repl.Record) error {
	s := t.s
	_, err := s.mutate(nil, &t.ends, func() ([][]byte, error) {
		t.logged = t.logged[:0]
		for i := range recs {
			rec := &recs[i]
			tr := s.tracer.Join(rec.TraceID)
			var sp xtrace.Span
			if tr != nil {
				tr.SetVerb(recordVerb(rec.Payload))
				tr.SetRemote(s.primaryAddr())
				sp = tr.StartSpan("apply")
				t.open = append(t.open, tr)
			}
			err := s.applyRecord(rec.Payload, &t.buf)
			if tr != nil {
				sp.End()
			}
			if err != nil {
				return t.logged, err
			}
			t.logged = append(t.logged, rec.Payload)
		}
		return t.logged, nil
	})
	return err
}

// recordVerb names a replicated record's command for the joined
// trace's verb field. An insert record does not say which of the two
// insert verbs the client used; it reads as SKETCH.INSERT.
func recordVerb(rec []byte) string {
	if isInsertRecord(rec) {
		return "SKETCH.INSERT"
	}
	if i := bytes.IndexByte(rec, ' '); i > 0 {
		return string(rec[:i])
	}
	return string(rec)
}

// writeReplMetrics renders the she_repl_* families: role, per-replica
// lag (records, bytes, seconds since last ack) on a primary, link
// state and staleness on a replica. Counter-shaped repl series
// (repl_full_syncs, repl_partial_syncs, repl_promotions,
// repl_applied_records, repl_sync_timeouts) ride the ordinary counter
// export.
func (s *Server) writeReplMetrics(p *obs.PromWriter) {
	isReplica := 0.0
	if s.primaryAddr() != "" {
		isReplica = 1
	}
	p.Gauge("she_repl_is_replica", isReplica)
	p.Gauge("she_repl_connected_replicas", float64(s.tracker.Count()))
	if s.wal != nil {
		tip := s.wal.Position()
		for _, in := range s.tracker.Infos() {
			p.Gauge("she_repl_lag_bytes", float64(s.wal.DistanceBytes(in.Ack, tip)), "replica", in.ID)
			p.Gauge("she_repl_lag_records", float64(in.UnackedRecords()), "replica", in.ID)
			p.Gauge("she_repl_ack_age_seconds", time.Since(in.LastAck).Seconds(), "replica", in.ID)
		}
	}
	if f := s.currentFollower(); f != nil {
		st := f.Status()
		connected := 0.0
		if st.Connected {
			connected = 1
		}
		p.Gauge("she_repl_follower_connected", connected)
		p.Gauge("she_repl_follower_full_syncs", float64(st.FullSyncs))
		p.Gauge("she_repl_follower_reconnects", float64(st.Reconnects))
		p.Gauge("she_repl_follower_applied_records", float64(st.AppliedRecs))
		p.Gauge("she_repl_follower_consecutive_failures", float64(st.ConsecutiveFailures))
		p.Gauge("she_repl_follower_next_retry_seconds", st.NextRetryDelay.Seconds())
		if !st.LastRecord.IsZero() {
			p.Gauge("she_repl_follower_staleness_seconds", time.Since(st.LastRecord).Seconds())
		}
	}
}
