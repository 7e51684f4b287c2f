package obs

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Command is one command worth showing an operator: a SLOWLOG entry or
// a MONITOR frame.
type Command struct {
	Time time.Time
	// Dur is how long the command took (SLOWLOG only).
	Dur time.Duration
	// Addr is the client connection (host:port) the command arrived on.
	Addr string
	// Line is the request line, bounded by the recorder.
	Line string
	// TraceID links the command to a retained request trace (0 = not
	// sampled).
	TraceID uint64
}

// Ring is a bounded FIFO, the one retention policy behind SLOWLOG,
// TRACE's retained traces and the replication trace tables. A push past
// capacity evicts the oldest entry; with a pin rule, the oldest
// unpinned entry, and the oldest pinned one only when every entry is
// pinned. The policy is deterministic, so tests can name the survivors.
//
// The length is an atomic, so the Take methods on an empty ring — the
// common case for the trace tables, which hold only sampled commands —
// return without taking the lock.
type Ring[T any] struct {
	n    atomic.Int64 // len(buf)
	size int
	pin  func(T) bool

	mu  sync.Mutex
	buf []Entry[T] // oldest first
	seq uint64     // pushes so far
}

// Entry is one held value with its push number: pushes before it since
// the ring was made. Reset does not rewind the count, so a reader can
// tell entries it missed (SLOWLOG's IDs).
type Entry[T any] struct {
	Seq uint64
	V   T
}

// NewRing returns an empty ring holding at most size (≥ 1) entries. pin,
// when not nil, marks the entries eviction spares while it can. pin and
// the Take methods' match run under the ring's lock, so they must be
// plain predicates: no blocking, no call back into the ring.
func NewRing[T any](size int, pin func(T) bool) *Ring[T] {
	return &Ring[T]{size: size, pin: pin}
}

// Push appends v, evicting first when the ring is full, and reports
// whether it evicted.
func (r *Ring[T]) Push(v T) (evicted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) >= r.size {
		victim := 0
		if r.pin != nil {
			victim = max(0, slices.IndexFunc(r.buf, func(e Entry[T]) bool { return !r.pin(e.V) }))
		}
		if victim == 0 {
			// Reslice rather than shift: append's growth keeps a push
			// amortised O(1) while the ring stays full.
			r.buf[0] = Entry[T]{}
			r.buf = r.buf[1:]
		} else {
			r.buf = slices.Delete(r.buf, victim, victim+1)
		}
		evicted = true
	}
	r.buf = append(r.buf, Entry[T]{r.seq, v})
	r.seq++
	r.n.Store(int64(len(r.buf)))
	return evicted
}

// Len returns the number of held entries without taking the lock.
func (r *Ring[T]) Len() int { return int(r.n.Load()) }

// Newest returns the held entries, newest first.
func (r *Ring[T]) Newest() []Entry[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry[T], len(r.buf))
	for i, e := range r.buf {
		out[len(out)-1-i] = e
	}
	return out
}

// TakeNewest removes and returns the newest entry match accepts.
func (r *Ring[T]) TakeNewest(match func(T) bool) (v T, ok bool) {
	if r.n.Load() == 0 {
		return v, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.buf) - 1; i >= 0; i-- {
		if match(r.buf[i].V) {
			v = r.buf[i].V
			r.buf = slices.Delete(r.buf, i, i+1)
			r.n.Store(int64(len(r.buf)))
			return v, true
		}
	}
	return v, false
}

// TakeAll removes and returns every entry match accepts, oldest first.
func (r *Ring[T]) TakeAll(match func(T) bool) (out []T) {
	if r.n.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = slices.DeleteFunc(r.buf, func(e Entry[T]) bool {
		if match(e.V) {
			out = append(out, e.V)
			return true
		}
		return false
	})
	r.n.Store(int64(len(r.buf)))
	return out
}

// Reset drops every held entry; push numbers keep counting.
func (r *Ring[T]) Reset() {
	r.mu.Lock()
	clear(r.buf)
	r.buf = r.buf[:0]
	r.n.Store(0)
	r.mu.Unlock()
}
