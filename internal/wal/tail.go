package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
)

// Replication tail reading.
//
// A Cursor names a position in the record stream as (generation,
// segment, byte offset): Gen is the snapshot generation the reader
// bootstrapped from (informational — segment sequences are globally
// monotonic, so ordering needs only Seg and Off), Seg is a segment
// sequence number, and Off is a byte offset at a record-frame boundary
// inside that segment. ReadFrom serves validated records from a cursor
// forward, bounded by the durable watermark: a byte appended but not
// yet fsynced — by definition never acknowledged to any client — can
// never reach a replica, so a replica can never be *ahead* of what the
// primary would recover after a crash.

// Cursor is a replication stream position. The zero Cursor means
// "nothing received yet" and always triggers a full resync.
type Cursor struct {
	Gen uint64
	Seg uint64
	Off int64
}

// IsZero reports the "no position" cursor.
func (c Cursor) IsZero() bool { return c == Cursor{} }

// Before orders cursors by stream position (Gen is informational).
func (c Cursor) Before(o Cursor) bool {
	return c.Seg < o.Seg || (c.Seg == o.Seg && c.Off < o.Off)
}

// String renders the cursor the way the wire protocol spells it.
func (c Cursor) String() string { return fmt.Sprintf("%d %d %d", c.Gen, c.Seg, c.Off) }

// ErrCursorGone reports a cursor whose position the log can no longer
// serve: the segment was checkpointed away, quarantined, or the offset
// is outside the validated bounds (a stale or divergent replica). The
// only recovery is a full resync from the current snapshot generation.
var ErrCursorGone = errors.New("wal: cursor position no longer available (full resync required)")

// TailRecord is one validated record read by ReadFrom, plus the cursor
// position immediately after it — what a replica acknowledges once the
// record is applied.
type TailRecord struct {
	Payload []byte
	End     Cursor
}

// Position returns the durable tip of the log: the cursor a fully
// caught-up replica would acknowledge. Only synced bytes count.
func (l *Log) Position() Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Cursor{Gen: l.gen, Seg: l.active, Off: l.synced}
}

// SyncNotify returns a channel closed at the next successful sync or
// rotation — the tail reader's cue that new durable bytes may exist.
// Grab the channel, read to the tip, then wait on it; a sync between
// the grab and the wait closes this same channel, so no wakeup is lost.
func (l *Log) SyncNotify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// notifyLocked wakes every SyncNotify waiter.
func (l *Log) notifyLocked() {
	close(l.notify)
	l.notify = make(chan struct{})
}

// SetRetain keeps segments with sequence >= seg on disk across
// checkpoints, so a replica catching up from seg is not cut off by a
// concurrent snapshot-then-truncate. ^uint64(0) (the default) disables
// retention. Retained segments sit below the manifest floor — recovery
// ignores them — and are swept once retention moves past them.
func (l *Log) SetRetain(seg uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retain = seg
}

// TailBuf is the memory a tailing reader lends ReadFrom: the segment
// bytes of one call and the records cut from them, and the path of the
// segment being tailed, rendered when the reader moves to another one.
// What a call returns aliases it and stays valid until the next call
// with the same TailBuf. The zero value is ready to use; one TailBuf
// serves one Log.
type TailBuf struct {
	data []byte
	recs []TailRecord
	seg  uint64
	path string // of segment seg; "" before the first read
}

// ReadFrom returns validated records from cursor c forward, up to
// roughly maxBytes of framed log (at least one record when any is
// available), plus the cursor after the last returned record. With no
// new durable data it returns no records and a cursor equal to c
// (possibly advanced across an exhausted segment boundary).
//
// Bounds are checked against the durable watermark and the validated
// segment sizes recorded at recovery: an offset past them, a segment
// below the retention horizon, or a quarantined segment all return
// ErrCursorGone, never garbage bytes. The records and their payloads
// live in tb, which a tailing caller reuses from call to call; nil
// means a fresh one.
func (l *Log) ReadFrom(c Cursor, maxBytes int64, tb *TailBuf) ([]TailRecord, Cursor, error) {
	const maxFrame = MaxRecordBytes + recordHeaderLen
	budget := maxBytes
	if budget <= 0 {
		budget = 1 << 20
	}
	if tb == nil {
		tb = new(TailBuf)
	}
	tb.recs = tb.recs[:0]
	used := 0 // bytes of tb.data the records cut so far alias
	for {
		l.mu.Lock()
		if l.f == nil {
			l.mu.Unlock()
			return tb.recs, c, ErrClosed
		}
		gen, active, synced := l.gen, l.active, l.synced
		var limit int64
		if c.Seg == active {
			limit = synced
		} else if sz, ok := l.segSizes[c.Seg]; ok {
			limit = sz
		} else {
			l.mu.Unlock()
			return tb.recs, c, ErrCursorGone
		}
		l.mu.Unlock()

		if c.Off > limit {
			// Past the validated bounds: a replica claiming bytes this
			// log never made durable (stale primary, divergent history).
			return tb.recs, c, ErrCursorGone
		}
		if c.Off == limit {
			if c.Seg >= active {
				return tb.recs, Cursor{Gen: gen, Seg: c.Seg, Off: c.Off}, nil // caught up
			}
			// Sealed segment exhausted; sequences are consecutive.
			c = Cursor{Gen: gen, Seg: c.Seg + 1}
			continue
		}
		// Read what is left of the budget. When that cuts the first
		// frame short, read that one frame whole, so a tight budget (or a
		// record larger than it) still makes progress.
		avail := limit - c.Off
		n := min(avail, max(budget, recordHeaderLen))
		data, err := l.readSegment(tb, used, c, n)
		if err == nil && n < avail && len(data) >= recordHeaderLen {
			frame := recordHeaderLen + int64(binary.LittleEndian.Uint32(data))
			if frame > n && frame <= maxFrame {
				n = min(avail, frame)
				data, err = l.readSegment(tb, used, c, n)
			}
		}
		if err != nil {
			// The segment vanished between the bounds check and the read
			// (checkpoint cleanup won the race): same remedy as any other
			// unavailable cursor.
			return tb.recs, c, ErrCursorGone
		}
		off := 0
		for off < len(data) {
			payload, m, derr := DecodeRecord(data[off:])
			if derr != nil {
				if errors.Is(derr, errTorn) && n < avail {
					break // frame cut by the byte budget; the next call resumes it
				}
				// A torn or corrupt frame inside the durable watermark:
				// never serve bytes past it.
				return tb.recs, c, ErrCursorGone
			}
			off += m
			tb.recs = append(tb.recs, TailRecord{
				Payload: payload,
				End:     Cursor{Gen: gen, Seg: c.Seg, Off: c.Off + int64(off)},
			})
		}
		if off == 0 {
			return tb.recs, c, ErrCursorGone
		}
		used += off
		c = Cursor{Gen: gen, Seg: c.Seg, Off: c.Off + int64(off)}
		if budget -= int64(off); budget <= 0 {
			return tb.recs, c, nil
		}
	}
}

// readSegment reads n bytes of segment c.Seg from c.Off into tb.data
// behind the used bytes earlier records of this call alias. Growing
// leaves those records on the old array, which stays valid.
func (l *Log) readSegment(tb *TailBuf, used int, c Cursor, n int64) ([]byte, error) {
	tb.data = slices.Grow(tb.data[:used], int(n))[:used+int(n)]
	if tb.path == "" || tb.seg != c.Seg {
		tb.seg, tb.path = c.Seg, filepath.Join(l.dir, segName(c.Seg))
	}
	m, err := l.fs.ReadFileAt(tb.path, c.Off, tb.data[used:])
	return tb.data[used : used+m], err
}

// DistanceBytes returns how many durable log bytes separate two
// cursors — the replica lag gauge. Segments already deleted contribute
// nothing (best effort); the result is clamped at zero.
func (l *Log) DistanceBytes(from, to Cursor) int64 {
	if !from.Before(to) {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var d int64
	for seg := from.Seg; seg < to.Seg; seg++ {
		if seg == l.active {
			d += l.synced
		} else if sz, ok := l.segSizes[seg]; ok {
			d += sz
		}
	}
	d += to.Off - from.Off
	if d < 0 {
		return 0
	}
	return d
}
