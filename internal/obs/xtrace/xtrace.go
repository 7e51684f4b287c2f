// Package xtrace is a sampled, wait-free request-tracing subsystem in
// the spirit of Dapper: each sampled command gets a Trace holding a
// bounded set of named child spans (parse, mutate, wal_append,
// fsync_wait, repl_ship, replack, apply, commit_fsync, ...), and the
// trace ID propagates across the replication wire so a follower's
// apply spans join the primary's trace. Completed traces are retained
// in a bounded ring with slow/error traces pinned preferentially.
//
// The package is named xtrace (not trace) to avoid colliding with the
// dataset-trace package internal/trace.
//
// Which commands are traced is not decided here: the caller's
// obs.Sampler picks them, and Start opens a trace for one it picked.
// Every method on *Trace and Span is safe on a nil receiver — a nil
// *Trace is a command that was not sampled — so call sites need no "is
// tracing on?" branches.
package xtrace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"she/internal/obs"
)

// MaxSpans bounds the spans recorded per trace. A replicated INSERT
// uses ~8 (parse, execute, mutate, wal_append, fsync_wait,
// replack_wait, repl_ship, replack); the slack absorbs multi-replica
// ship/ack spans. Appends past the cap are counted and dropped.
const MaxSpans = 16

const (
	// ringSize bounds the retained completed traces.
	ringSize = 256
	// pinSlow pins completed traces at least this slow, so the ring
	// evicts fast, boring traces first. Error traces are always pinned.
	pinSlow = 10 * time.Millisecond
)

// Config seeds a Tracer.
type Config struct {
	// Seed perturbs trace-ID generation so two nodes started at the
	// same time don't collide. IDs only need uniqueness within a
	// deployment's retention horizon.
	Seed uint64
	// Clock returns monotonic nanoseconds; defaults to obs.Nanotime.
	Clock func() int64
}

// Tracer owns ID generation and the retention ring. One per server.
type Tracer struct {
	nextID atomic.Uint64
	seed   uint64
	clock  func() int64

	joined   atomic.Uint64 // follower joins
	finished atomic.Uint64
	evicted  atomic.Uint64

	ring *obs.Ring[*Trace] // completed traces, slow and failed ones pinned
}

// Stats is a point-in-time snapshot of tracer counters for /metrics.
type Stats struct {
	Retained int
	Pinned   int
	Joined   uint64
	Finished uint64
	Evicted  uint64
}

// New builds a Tracer. Always construct one even when the trace rate
// is 0: sampling can be enabled at runtime (TRACE SAMPLE) and
// followers join primary-sampled traces regardless of the local rate.
func New(cfg Config) *Tracer {
	clock := cfg.Clock
	if clock == nil {
		clock = obs.Nanotime
	}
	return &Tracer{
		seed:  cfg.Seed,
		clock: clock,
		ring:  obs.NewRing(ringSize, func(t *Trace) bool { return t.pinned }),
	}
}

// id derives the next trace ID: a counter mixed through a
// splitmix64-style finalizer with the node seed, so IDs from different
// nodes don't interleave as near-adjacent integers. Never returns 0 —
// 0 is the wire encoding for "no trace".
func (tr *Tracer) id() uint64 {
	for {
		x := tr.nextID.Add(1) ^ tr.seed
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// Start opens the root trace of a command the caller's sampler picked.
func (tr *Tracer) Start() *Trace {
	return tr.newTrace(tr.id(), false)
}

// Join starts a trace that adopts an existing ID — the follower half
// of a cross-node trace. The sampling decision was made at the root,
// so joins ignore the local rate. A zero id returns nil.
func (tr *Tracer) Join(id uint64) *Trace {
	if id == 0 {
		return nil
	}
	tr.joined.Add(1)
	return tr.newTrace(id, true)
}

func (tr *Tracer) newTrace(id uint64, joined bool) *Trace {
	t := &Trace{tracer: tr, id: id, joined: joined}
	t.wall = time.Now().UnixNano()
	t.start = tr.clock()
	return t
}

// Finish completes t, computes its duration and retains it in the
// ring. Safe to call on nil; calling twice retains once.
func (t *Trace) Finish() {
	if t == nil || !t.done.CompareAndSwap(false, true) {
		return
	}
	tr := t.tracer
	t.end.Store(tr.clock())
	t.pinned = t.errFlag.Load() || t.Duration() >= pinSlow
	tr.finished.Add(1)
	if tr.ring.Push(t) {
		tr.evicted.Add(1)
	}
}

// Get returns the completed trace with the given ID, or nil. Newest
// first: after an ID collision the most recent trace is the one being
// asked about.
func (tr *Tracer) Get(id uint64) *Trace {
	for _, t := range tr.All() {
		if t.id == id {
			return t
		}
	}
	return nil
}

// All returns retained traces, newest first.
func (tr *Tracer) All() []*Trace {
	held := tr.ring.Newest()
	out := make([]*Trace, len(held))
	for i, e := range held {
		out[i] = e.V
	}
	return out
}

// Slowest returns up to n retained traces ordered by descending
// duration (ties broken newest first); n ≥ 1.
func (tr *Tracer) Slowest(n int) []*Trace {
	all := tr.All()
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].Duration() > all[j].Duration()
	})
	return all[:min(n, len(all))]
}

// Reset drops all retained traces.
func (tr *Tracer) Reset() { tr.ring.Reset() }

// Snapshot returns tracer counters for /metrics.
func (tr *Tracer) Snapshot() Stats {
	all := tr.All()
	st := Stats{
		Retained: len(all),
		Joined:   tr.joined.Load(),
		Finished: tr.finished.Load(),
		Evicted:  tr.evicted.Load(),
	}
	for _, t := range all {
		if t.pinned {
			st.Pinned++
		}
	}
	return st
}

// span slots publish via state (0 empty → 1 reserved → 2 done) with
// release stores, so readers that acquire-load state==2 see a
// consistent name/start/end even when the writer is another goroutine
// (the replication ack consumer appends after Finish).
type span struct {
	name  string
	start int64
	end   int64
	state atomic.Int32
}

// Trace is one command's record: identity, timing, spans.
type Trace struct {
	tracer *Tracer
	id     uint64
	joined bool
	wall   int64 // time.Now().UnixNano() at Start/Join
	start  int64 // monotonic ns

	verbMu sync.Mutex
	verb   string
	remote string

	end     atomic.Int64
	errFlag atomic.Bool
	done    atomic.Bool
	pinned  bool // written under done CAS in Finish, before the ring push

	n       atomic.Int32 // span slots reserved
	dropped atomic.Int32 // appends past MaxSpans
	spans   [MaxSpans]span
}

// ID returns the trace ID (0 for nil).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// SetVerb labels the trace with its command verb.
func (t *Trace) SetVerb(verb string) {
	if t == nil {
		return
	}
	t.verbMu.Lock()
	t.verb = verb
	t.verbMu.Unlock()
}

// SetRemote labels the trace with the client address.
func (t *Trace) SetRemote(addr string) {
	if t == nil {
		return
	}
	t.verbMu.Lock()
	t.remote = addr
	t.verbMu.Unlock()
}

// SetError marks the trace failed, which pins it in the ring.
func (t *Trace) SetError() {
	if t == nil {
		return
	}
	t.errFlag.Store(true)
}

// Err reports whether SetError was called.
func (t *Trace) Err() bool {
	return t != nil && t.errFlag.Load()
}

// Duration is end-start once finished, 0 before.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	end := t.end.Load()
	if end == 0 {
		return 0
	}
	return time.Duration(end - t.start)
}

// AddSpan records a completed span from caller-supplied monotonic
// timestamps (obs.Nanotime domain). Wait-free: one atomic reservation
// plus release stores.
func (t *Trace) AddSpan(name string, startNs, endNs int64) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if i >= MaxSpans {
		t.dropped.Add(1)
		return
	}
	sp := &t.spans[i]
	sp.state.Store(1)
	sp.name = name
	sp.start = startNs
	sp.end = endNs
	sp.state.Store(2) // release: publishes name/start/end
}

// Span is an open child span handle; End closes it.
type Span struct {
	t       *Trace
	name    string
	startNs int64
}

// StartSpan opens a named span clocked now. The clock read only
// happens on sampled traces (nil receiver short-circuits).
func (t *Trace) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, startNs: t.tracer.clock()}
}

// End closes the span and records it on its trace.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.AddSpan(s.name, s.startNs, s.t.tracer.clock())
}

// SpanView is a rendered span: times as offsets from trace start.
type SpanView struct {
	Name    string        `json:"name"`
	StartNs int64         `json:"start_ns"` // offset from trace start
	DurNs   int64         `json:"dur_ns"`
	Dur     time.Duration `json:"-"`
}

// TraceView is the JSON shape TRACE GET renders.
type TraceView struct {
	ID      string     `json:"id"` // %016x
	Verb    string     `json:"verb,omitempty"`
	Remote  string     `json:"remote,omitempty"`
	WallNs  int64      `json:"wall_ns"` // UnixNano at trace start
	DurNs   int64      `json:"dur_ns"`
	Err     bool       `json:"err,omitempty"`
	Pinned  bool       `json:"pinned,omitempty"`
	Joined  bool       `json:"joined,omitempty"` // follower half of a cross-node trace
	Dropped int        `json:"dropped_spans,omitempty"`
	Spans   []SpanView `json:"spans"`
}

// View renders a completed trace for JSON output. Spans are ordered
// by start offset.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	t.verbMu.Lock()
	verb, remote := t.verb, t.remote
	t.verbMu.Unlock()
	v := TraceView{
		ID:      FormatID(t.id),
		Verb:    verb,
		Remote:  remote,
		WallNs:  t.wall,
		DurNs:   int64(t.Duration()),
		Err:     t.errFlag.Load(),
		Pinned:  t.pinned,
		Joined:  t.joined,
		Dropped: int(t.dropped.Load()),
	}
	n := int(t.n.Load())
	if n > MaxSpans {
		n = MaxSpans
	}
	for i := 0; i < n; i++ {
		sp := &t.spans[i]
		if sp.state.Load() != 2 { // acquire: reserved but not published
			continue
		}
		v.Spans = append(v.Spans, SpanView{
			Name:    sp.name,
			StartNs: sp.start - t.start,
			DurNs:   sp.end - sp.start,
			Dur:     time.Duration(sp.end - sp.start),
		})
	}
	sort.SliceStable(v.Spans, func(i, j int) bool {
		return v.Spans[i].StartNs < v.Spans[j].StartNs
	})
	return v
}
