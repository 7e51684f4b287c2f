package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"

	"she"
	"she/internal/failfs"
	"she/internal/obs/xtrace"
	"she/internal/wal"
)

// DefaultCheckpointBytes is the WAL size that triggers a
// snapshot-then-truncate checkpoint when Config.CheckpointBytes is
// zero.
const DefaultCheckpointBytes = 8 << 20

// recoverWAL restores durable state at startup: load the manifest's
// snapshot generation and replay the log records on top of it. If
// damaged files were found it checkpoints right away, so the recovered
// state is durable again without them; a clean log is left to the size
// threshold, which counts the replayed segments.
func (s *Server) recoverWAL() error {
	var segBytes int64
	if s.cfg.CheckpointBytes > 0 {
		// Keep a handful of segments per checkpoint interval so
		// rotation is exercised and cleanup stays incremental.
		segBytes = (s.cfg.CheckpointBytes + 3) / 4
	}
	l, rec, err := wal.Open(s.cfg.WALDir, wal.Options{
		FS:                s.fs,
		SegmentBytes:      segBytes,
		SyncLatency:       s.walSyncHist,
		AppendLatency:     s.walAppendHist,
		CheckpointLatency: s.walChkHist,
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if rec.SnapDir != "" {
		if err := s.loadSnapshotDir(rec.SnapDir); err != nil {
			l.Close()
			return err
		}
	}
	var buf insertBuf
	for _, r := range rec.Records {
		if err := s.applyRecord(r, &buf); err != nil {
			s.ctr.WALReplaySkipped.Inc()
			s.logger.Warn("wal replay: skipping record", "err", err)
		} else {
			s.ctr.WALReplayed.Inc()
		}
	}
	s.wal = l
	s.ctr.WALTornBytes.Add(rec.TornBytes)
	s.ctr.WALSegsQuarantine.Add(int64(len(rec.CorruptSegments) + len(rec.OrphanedSegments)))
	if rec.TornBytes > 0 {
		s.logger.Warn("wal: truncated torn tail (crash mid-append; bytes were never acknowledged)",
			"torn_bytes", rec.TornBytes)
	}
	for _, seg := range rec.CorruptSegments {
		s.logger.Warn("wal: segment failed CRC; quarantining",
			"segment", seg, "quarantine", seg+".corrupt")
	}
	if err := s.checkpoint(rec.Damaged(), nil); err != nil {
		return fmt.Errorf("server: post-recovery checkpoint: %w", err)
	}
	return nil
}

// applyRecord re-applies one logged mutation, during replay and on a
// follower. The first byte picks the arm: an insert record goes
// straight from its bytes to insertRun through buf; anything else is a
// protocol-shaped line and shares the wire parser — SKETCH.CREATE and
// SKETCH.DROP. Semantic conflicts (a record for a sketch missing after
// a quarantined-segment gap) are returned for the caller to count and
// log — one bad record must not abort recovery of the rest.
func (s *Server) applyRecord(rec []byte, buf *insertBuf) error {
	if isInsertRecord(rec) {
		name, keys, err := decodeInsertRecord(rec, buf.keys)
		if err != nil {
			return err
		}
		buf.keys = keys
		if !s.insertRun(name, keys, &buf.sc) {
			return fmt.Errorf("no such sketch %q", name)
		}
		return nil
	}
	cmd, err := ParseCommand(string(rec))
	if err != nil {
		return fmt.Errorf("record %.60q: %w", rec, err)
	}
	switch cmd.Name {
	case "SKETCH.CREATE":
		if len(cmd.Args) < 2 {
			return fmt.Errorf("short CREATE record %.60q", rec)
		}
		kv, err := ParseKV(cmd.Args[2:])
		if err != nil {
			return err
		}
		sk, err := NewSketch(cmd.Args[1], kv)
		if err != nil {
			return err
		}
		// The log is authoritative about state at this position, so a
		// CREATE replaces any sketch already registered under the name.
		s.reg.Put(cmd.Args[0], sk)
		return nil
	case "SKETCH.INSERT", "MINSERT":
		// Only binaries older than the insert record logged inserts as
		// text, and those also predate position scheme 2: their state
		// cannot load here either (DESIGN.md §9, §12).
		return fmt.Errorf("text %s record %.60q predates insert records; not replayed", cmd.Name, rec)
	case "SKETCH.DROP":
		if len(cmd.Args) != 1 {
			return fmt.Errorf("short DROP record %.60q", rec)
		}
		return s.reg.Drop(cmd.Args[0])
	}
	return fmt.Errorf("unexpected record command %q", cmd.Name)
}

// insertRun is the one way from an insert to sketch state: WAL replay,
// a follower's burst, the connection batch and the slow-path insert all
// resolve the named sketch here, the last three inside mutate's
// ordering point. False means no such sketch.
func (s *Server) insertRun(name []byte, keys []uint64, sc *she.BatchScratch) bool {
	sk := s.reg.GetBytes(name)
	if sk != nil {
		sk.InsertBatch(keys, sc)
	}
	return sk != nil
}

// mutate is the one apply-then-log path: a connection batch, a
// slow-path SKETCH.CREATE, SKETCH.DROP or insert, and a follower's burst
// all change state through it. Under ordMu it runs apply and appends
// the records apply returns — also when apply returns an error with
// them, since those records are in the sketches. *ends is the caller's
// walAppend scratch; the end cursor of the last record is returned
// (zero when nothing was logged). A sampled command's mutate span
// covers the apply and the append. After the lock is released, a log
// that has outgrown its bound is checkpointed. Without a WAL apply just
// runs, under no lock of mutate's.
func (s *Server) mutate(tr *xtrace.Trace, ends *[]wal.Cursor, apply func() ([][]byte, error)) (end wal.Cursor, err error) {
	sp := tr.StartSpan("mutate")
	if s.wal == nil {
		_, err = apply()
		sp.End()
		return end, err
	}
	func() {
		s.ordMu.Lock()
		defer s.ordMu.Unlock() // by defer: a panic in apply must not wedge the log
		recs, aerr := apply()
		if len(recs) > 0 {
			end, err = s.walAppend(recs, ends, tr)
		}
		if err == nil {
			err = aerr
		}
	}()
	sp.End()
	if err == nil {
		if cerr := s.checkpoint(false, nil); cerr != nil {
			s.logger.Error("checkpoint failed", "err", cerr)
		}
	}
	return end, err
}

// walAppend is how mutate's records enter the log, with one lock hold
// and one write. *ends receives each one's end cursor; the last is
// returned: what a replica acknowledges once it holds them all, and so
// what a semi-synchronous barrier waits for. They are durable only
// after the commit-time Sync. A sampled command's record (tr != nil)
// gets a wal_append span and a ship-table entry at its end cursor, so
// its REC frame carries the trace to the follower.
func (s *Server) walAppend(recs [][]byte, ends *[]wal.Cursor, tr *xtrace.Trace) (wal.Cursor, error) {
	*ends = slices.Grow((*ends)[:0], len(recs))[:len(recs)]
	sp := tr.StartSpan("wal_append")
	err := s.wal.AppendBatch(recs, *ends)
	sp.End()
	if err != nil {
		s.ctr.WALErrors.Inc()
		return wal.Cursor{}, err
	}
	end := (*ends)[len(recs)-1]
	if tr != nil {
		s.ship.Push(tracedRec{seg: end.Seg, off: end.Off, tr: tr})
	}
	s.ctr.WALRecords.Add(int64(len(recs)))
	s.ctr.WALBytes.Set(s.wal.BytesSinceCheckpoint())
	return end, nil
}

// checkpoint runs change — a replacement of registry state the log
// cannot express: SKETCH.LOAD's Put — then writes every sketch into a
// fresh WAL snapshot generation and truncates the log, all in one hold
// of ordMu, so no apply-and-append falls between the change, the
// snapshot and the new log floor. force skips the size threshold
// (shutdown, recovery that found damage, the end of a replica's full
// sync, and every change); without it the log is checkpointed only once
// it has outgrown Config.CheckpointBytes. Without a WAL only change runs.
func (s *Server) checkpoint(force bool, change func()) error {
	if s.wal == nil {
		if change != nil {
			change()
		}
		return nil
	}
	limit := s.cfg.CheckpointBytes
	if limit <= 0 {
		limit = DefaultCheckpointBytes
	}
	if !force && s.wal.BytesSinceCheckpoint() < limit {
		return nil
	}
	s.ordMu.Lock()
	defer s.ordMu.Unlock()
	if change != nil {
		change()
	}
	if !force && s.wal.BytesSinceCheckpoint() < limit {
		return nil // another connection checkpointed while we waited
	}
	// Keep every segment an attached replica still needs: truncation
	// below a replica's acknowledged position would force it into a
	// full resync mid-stream.
	if seg, ok := s.tracker.MinAckSeg(); ok {
		s.wal.SetRetain(seg)
	} else {
		s.wal.SetRetain(^uint64(0))
	}
	err := s.wal.Checkpoint(func(dir string, fsys failfs.FS) error {
		return s.eachSketch(func(name string, sk *Sketch) (err error) {
			s.chkBuf, err = writeSketchFile(fsys, filepath.Join(dir, name+snapshotExt), sk, s.chkBuf)
			return err
		})
	})
	if err != nil {
		s.ctr.CheckpointErrors.Inc()
		return err
	}
	s.ctr.Checkpoints.Inc()
	s.ctr.WALBytes.Set(s.wal.BytesSinceCheckpoint())
	return nil
}

// eachSketch calls fn on every registered sketch, in name order, and
// stops at the first error: the files of a checkpoint generation, and
// of a full sync.
func (s *Server) eachSketch(fn func(name string, sk *Sketch) error) error {
	for _, in := range s.reg.List() {
		if err := fn(in.Name, in.Sketch); err != nil {
			return fmt.Errorf("snapshot %s: %w", in.Name, err)
		}
	}
	return nil
}

// sealSketch renders sk as the bytes of its snapshot file, sealed
// (checksummed), in memory: what a full sync sends. Every layer appends
// into one buffer, sized once: the payload MemoryBits counts, packed,
// plus headers — under 128 bytes a shard (core header, geometry, array
// lengths, word rounding, the shard's length word) and 64 for the
// file's own three.
func sealSketch(sk *Sketch) ([]byte, error) {
	buf, err := sk.AppendBinary(make([]byte, wal.SealHeader, sk.MemoryBits()/8+128*sk.Shards()+64))
	if err != nil {
		return nil, err
	}
	return wal.Seal(buf), nil
}

// writeSketchFile atomically replaces path with sk's sealed snapshot —
// the bytes sealSketch renders — streamed one shard at a time through
// buf, so no more than a shard's encoding is held at once. It returns
// buf for the next file.
func writeSketchFile(fsys failfs.FS, path string, sk *Sketch, buf []byte) ([]byte, error) {
	// One shard's share of sealSketch's estimate (a sketch's shards are
	// one size, to a word); made, not grown: slices.Grow allocates it
	// twice under the race detector.
	if n := sk.MemoryBits()/8/sk.Shards() + 128 + 64; cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	err := wal.WriteSealed(fsys, path, 0o644, func(w io.Writer) (err error) {
		buf, err = sk.structure.WriteBinary(w, sk.appendEnvelope(buf[:0]))
		return err
	})
	return buf, err
}

// parseSnapshot is the one decoder of a snapshot file, whichever route
// brought it: the seal must verify, the server envelope must be there
// at this build's version, and the kind row the sharded tag names
// decodes the rest.
func parseSnapshot(data []byte) (*Sketch, error) {
	payload, err := wal.Unseal(data)
	if err != nil {
		return nil, err
	}
	if len(payload) < envelopeLen || string(payload[:4]) != envelopeMagic {
		return nil, fmt.Errorf("snapshot has no %q envelope", envelopeMagic)
	}
	if v := payload[4]; v != envelopeVersion {
		return nil, fmt.Errorf("snapshot envelope version %d, want %d", v, envelopeVersion)
	}
	name, err := she.ShardedSnapshotKind(payload[envelopeLen:])
	if err != nil {
		return nil, err
	}
	row := lookupKind(name)
	if row == nil {
		return nil, fmt.Errorf("unknown sketch kind %q (want %s)", name, kindList(false))
	}
	st, err := row.decode(payload[envelopeLen:])
	if err != nil {
		return nil, err
	}
	sk := &Sketch{structure: st, row: row, window: st.Stats().Window}
	sk.inserts.Store(binary.LittleEndian.Uint64(payload[5:]))
	return sk, nil
}

// loadSnapshotDir restores every *.she snapshot in dir into the
// registry. One unusable file is logged, and quarantined as
// loadSketchFile says; it never aborts the rest of the directory and
// never silently succeeds.
func (s *Server) loadSnapshotDir(dir string) error {
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("server: snapshot dir %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), snapshotExt) {
			continue
		}
		name := strings.TrimSuffix(e.Name(), snapshotExt)
		if !ValidName(name) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		sk, err := s.loadSketchFile(path)
		if err != nil {
			s.logger.Warn("snapshot unusable", "path", path, "err", err)
			continue
		}
		s.reg.Put(name, sk)
	}
	return nil
}

// loadSketchFile reads and decodes one snapshot file, for SKETCH.LOAD
// and directory restore alike. Bytes that do not decode are never
// retried into a sketch: the file is set aside as <file>.corrupt and
// counted, and the error says where it went.
func (s *Server) loadSketchFile(path string) (*Sketch, error) {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sk, err := parseSnapshot(data)
	if err != nil {
		s.ctr.SnapsQuarantined.Inc()
		if q, qerr := wal.Quarantine(s.fs, path); qerr == nil {
			return nil, fmt.Errorf("%v (quarantined to %s)", err, filepath.Base(q))
		}
	}
	return sk, err
}
