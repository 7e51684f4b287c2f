package repl

import (
	"errors"
	"sync"
	"time"

	"she/internal/wal"
)

// ErrAckTimeout reports a semi-synchronous commit that did not gather
// enough replica acknowledgements in time. The batch *is* durable on
// the primary — the WAL fsync already succeeded — but its replication
// could not be proven, so the client must not be told it was.
var ErrAckTimeout = errors.New("repl: timed out waiting for replica acks")

// Tracker is the primary's registry of connected replicas: who is
// attached, what each has acknowledged, and the condition variable the
// semi-synchronous commit path waits on.
type Tracker struct {
	mu       sync.Mutex
	cond     *sync.Cond
	replicas map[*Replica]struct{}
}

// Replica is one attached follower's server-side state. All fields are
// guarded by the owning Tracker's lock.
type Replica struct {
	t *Tracker

	id          string // remote address of the replication connection
	connectedAt time.Time
	fullSync    bool // this session started with a full resync
	loading     bool // full-syncing, and no ack yet: WaitAck skips it

	ack       wal.Cursor // position the follower has applied (and fsynced)
	lastAck   time.Time
	sentRecs  uint64 // session-cumulative records streamed to it
	sentBytes uint64
	ackRecs   uint64 // session-cumulative totals echoed in its REPLACKs
	ackBytes  uint64
}

// ReplicaInfo is a read-only snapshot of one replica's state, for ROLE
// and /metrics.
type ReplicaInfo struct {
	ID          string
	ConnectedAt time.Time
	FullSync    bool
	Ack         wal.Cursor
	LastAck     time.Time
	SentRecs    uint64
	SentBytes   uint64
	AckRecs     uint64
	AckBytes    uint64
}

// UnackedRecords is the record-level lag: streamed but not yet
// acknowledged in this session.
func (in ReplicaInfo) UnackedRecords() uint64 {
	if in.SentRecs < in.AckRecs {
		return 0
	}
	return in.SentRecs - in.AckRecs
}

// NewTracker returns an empty replica registry.
func NewTracker() *Tracker {
	t := &Tracker{replicas: make(map[*Replica]struct{})}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Register attaches a replica whose stream starts at start. A
// continuing replica holds everything below start already, so it counts
// as acknowledged there at once and semi-sync waiters are woken to
// recount. A full-syncing one holds nothing until it has loaded,
// fsynced and acknowledged the snapshot: WaitAck counts it from its
// first Ack. Its start is still the retention floor (MinAckSeg) from
// the attach on.
func (t *Tracker) Register(id string, start wal.Cursor, fullSync bool) *Replica {
	r := &Replica{
		t:           t,
		id:          id,
		connectedAt: time.Now(),
		fullSync:    fullSync,
		loading:     fullSync,
		ack:         start,
		lastAck:     time.Now(),
	}
	t.mu.Lock()
	t.replicas[r] = struct{}{}
	t.cond.Broadcast()
	t.mu.Unlock()
	return r
}

// Close detaches the replica and wakes waiters (a commit waiting on a
// replica that just died must recount, and usually time out).
func (r *Replica) Close() {
	r.t.mu.Lock()
	delete(r.t.replicas, r)
	r.t.cond.Broadcast()
	r.t.mu.Unlock()
}

// Ack records a follower acknowledgement and wakes semi-sync waiters.
func (r *Replica) Ack(c wal.Cursor, recs, bytes uint64) {
	r.t.mu.Lock()
	if r.ack.Before(c) {
		r.ack = c
	}
	if recs > r.ackRecs {
		r.ackRecs = recs
	}
	if bytes > r.ackBytes {
		r.ackBytes = bytes
	}
	r.loading = false
	r.lastAck = time.Now()
	r.t.cond.Broadcast()
	r.t.mu.Unlock()
}

// NoteSent accounts records streamed to this replica.
func (r *Replica) NoteSent(recs, bytes uint64) {
	r.t.mu.Lock()
	r.sentRecs += recs
	r.sentBytes += bytes
	r.t.mu.Unlock()
}

// AckedCursor returns the replica's acknowledged position.
func (r *Replica) AckedCursor() wal.Cursor {
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	return r.ack
}

// Count returns how many replicas are attached.
func (t *Tracker) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.replicas)
}

// MinAckSeg returns the lowest segment any attached replica still
// needs (its acknowledged position) — the WAL retention floor that
// keeps checkpoints from cutting a catching-up replica off. ok is
// false with no replicas attached.
func (t *Tracker) MinAckSeg() (seg uint64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for r := range t.replicas {
		if !ok || r.ack.Seg < seg {
			seg, ok = r.ack.Seg, true
		}
	}
	return seg, ok
}

// Infos snapshots every attached replica, for ROLE and /metrics.
func (t *Tracker) Infos() []ReplicaInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ReplicaInfo, 0, len(t.replicas))
	for r := range t.replicas {
		out = append(out, ReplicaInfo{
			ID:          r.id,
			ConnectedAt: r.connectedAt,
			FullSync:    r.fullSync,
			Ack:         r.ack,
			LastAck:     r.lastAck,
			SentRecs:    r.sentRecs,
			SentBytes:   r.sentBytes,
			AckRecs:     r.ackRecs,
			AckBytes:    r.ackBytes,
		})
	}
	return out
}

// WaitAck blocks until at least n replicas have acknowledged pos (or
// beyond), or until timeout, or until done closes (server shutdown).
// This is the semi-synchronous commit barrier: with it, "acknowledged
// to the client" implies "applied and durable on n replicas", which is
// what makes failover lose nothing that was ever acked.
func (t *Tracker) WaitAck(pos wal.Cursor, n int, timeout time.Duration, done <-chan struct{}) error {
	if n <= 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	// The timer and the done watcher both just broadcast: the loop
	// below re-checks its real predicates after every wakeup.
	timer := time.AfterFunc(timeout, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer timer.Stop()
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-done:
			t.mu.Lock()
			t.cond.Broadcast()
			t.mu.Unlock()
		case <-stopWatch:
		}
	}()

	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		acked := 0
		for r := range t.replicas {
			if !r.loading && !r.ack.Before(pos) {
				acked++
			}
		}
		if acked >= n {
			return nil
		}
		select {
		case <-done:
			return ErrAckTimeout
		default:
		}
		if !time.Now().Before(deadline) {
			return ErrAckTimeout
		}
		t.cond.Wait()
	}
}
