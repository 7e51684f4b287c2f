package xtrace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-cranked monotonic clock so pinning thresholds
// are deterministic.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ns++
	return c.ns
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.ns += d.Nanoseconds()
	c.mu.Unlock()
}

func newTestTracer(t *testing.T) (*Tracer, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	return New(Config{Clock: clk.now}), clk
}

func TestNilReceiversSafe(t *testing.T) {
	var tt *Trace
	tt.SetVerb("X")
	tt.SetRemote("a")
	tt.SetError()
	tt.AddSpan("s", 1, 2)
	sp := tt.StartSpan("s")
	sp.End()
	tt.Finish()
	if tt.ID() != 0 || tt.Duration() != 0 || tt.Err() {
		t.Fatal("nil trace reported non-zero state")
	}
	if v := tt.View(); v.ID != "" || v.Spans != nil {
		t.Fatalf("nil trace view = %+v", v)
	}
}

// TestRingEvictionDeterminism: fill the ring past capacity with a mix
// of pinned (slow/error) and unpinned traces, and assert exactly which
// survive — oldest unpinned evicted first, pinned only when nothing
// else is left.
func TestRingEvictionDeterminism(t *testing.T) {
	tr, clk := newTestTracer(t)

	finish := func(verb string, slow bool) {
		tt := tr.Start()
		tt.SetVerb(verb)
		if slow {
			clk.advance(pinSlow)
		}
		tt.Finish()
	}
	oldest := func() string {
		all := verbs(tr.All())
		return all[len(all)-1]
	}

	// fast0 fast1 SLOW2 fast3 ...: the ring full, nothing evicted.
	for i := 0; i < ringSize; i++ {
		if i == 2 {
			finish("SLOW2", true)
		} else {
			finish(fmt.Sprintf("fast%d", i), false)
		}
	}
	if st := tr.Snapshot(); st.Retained != ringSize || st.Evicted != 0 || st.Pinned != 1 {
		t.Fatalf("full ring: %+v", st)
	}

	// One more fast trace evicts fast0, the oldest unpinned.
	finish("fastN", false)
	if got := oldest(); got != "fast1" {
		t.Fatalf("after 1 eviction the oldest is %s, want fast1", got)
	}

	// ringSize-1 slow traces evict every fast one in age order; SLOW2
	// outlives them all.
	for i := 0; i < ringSize-1; i++ {
		finish(fmt.Sprintf("SLOW%d", 100+i), true)
	}
	if got := oldest(); got != "SLOW2" {
		t.Fatalf("after pinned fill the oldest is %s, want SLOW2", got)
	}

	// Ring now all pinned: the next completion evicts the OLDEST pinned.
	finish("SLOWN", true)
	if got := oldest(); got != "SLOW100" {
		t.Fatalf("after all-pinned eviction the oldest is %s, want SLOW100", got)
	}
	if got := verbs(tr.All())[0]; got != "SLOWN" {
		t.Fatalf("newest = %s, want SLOWN", got)
	}

	st := tr.Snapshot()
	if st.Evicted != uint64(ringSize+1) || st.Pinned != ringSize || st.Retained != ringSize {
		t.Fatalf("Snapshot = %+v, want %d evicted, all %d pinned", st, ringSize+1, ringSize)
	}
}

func verbs(ts []*Trace) []string {
	out := make([]string, len(ts))
	for i, tt := range ts {
		out[i] = tt.View().Verb
	}
	return out
}

func TestErrorTracePinned(t *testing.T) {
	tr, _ := newTestTracer(t)
	e := tr.Start()
	e.SetVerb("ERR")
	e.SetError()
	e.Finish()
	for i := 0; i < ringSize+5; i++ {
		tt := tr.Start()
		tt.SetVerb(fmt.Sprintf("ok%d", i))
		tt.Finish()
	}
	got := verbs(tr.All())
	if len(got) != ringSize || got[ringSize-1] != "ERR" {
		t.Fatalf("error trace not retained: ring = %v", got)
	}
}

func TestGetSlowestReset(t *testing.T) {
	tr, clk := newTestTracer(t)
	var ids []uint64
	for i := 0; i < 3; i++ {
		tt := tr.Start()
		tt.SetVerb(fmt.Sprintf("v%d", i))
		clk.advance(time.Duration(i+1) * time.Microsecond)
		tt.Finish()
		ids = append(ids, tt.ID())
	}
	for i, id := range ids {
		tt := tr.Get(id)
		if tt == nil || tt.View().Verb != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%016x) wrong trace", id)
		}
	}
	if tr.Get(0xdeadbeef) != nil {
		t.Fatal("Get of unknown id returned a trace")
	}
	slow := tr.Slowest(2)
	if len(slow) != 2 || slow[0].View().Verb != "v2" || slow[1].View().Verb != "v1" {
		t.Fatalf("Slowest(2) = %v", verbs(slow))
	}
	tr.Reset()
	if len(tr.All()) != 0 || tr.Get(ids[0]) != nil {
		t.Fatal("Reset did not clear the ring")
	}
}

func TestJoinAdoptsID(t *testing.T) {
	tr, _ := newTestTracer(t)
	tt := tr.Join(0xabc123)
	if tt.ID() != 0xabc123 {
		t.Fatalf("Join id = %x", tt.ID())
	}
	tt.AddSpan("apply", 1, 2)
	tt.Finish()
	v := tr.Get(0xabc123).View()
	if !v.Joined || v.ID != FormatID(0xabc123) {
		t.Fatalf("joined view = %+v", v)
	}
	if tr.Join(0) != nil {
		t.Fatal("Join(0) returned a trace")
	}
}

func TestSpanOverflowCounted(t *testing.T) {
	tr, _ := newTestTracer(t)
	tt := tr.Start()
	for i := 0; i < MaxSpans+3; i++ {
		tt.AddSpan(fmt.Sprintf("s%d", i), int64(i), int64(i+1))
	}
	tt.Finish()
	v := tt.View()
	if len(v.Spans) != MaxSpans {
		t.Fatalf("spans = %d, want %d", len(v.Spans), MaxSpans)
	}
	if v.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", v.Dropped)
	}
}

// Spans may land after Finish (the replication ack consumer appends
// replack from another goroutine). The view must stay consistent
// under -race.
func TestPostFinishSpanAppendConcurrent(t *testing.T) {
	tr, _ := newTestTracer(t)
	tt := tr.Start()
	tt.AddSpan("execute", 1, 2)
	tt.Finish()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		tt.AddSpan("replack", 3, 9)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = tt.View()
		}
	}()
	wg.Wait()
	spans := tt.View().Spans
	if len(spans) != 2 || spans[0].Name != "execute" || spans[1].Name != "replack" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestIDFormatParse(t *testing.T) {
	for _, id := range []uint64{1, 0xabc, 0xffffffffffffffff, 0x0123456789abcdef} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%x) = %q, not 16 chars", id, s)
		}
		back, ok := ParseID(s)
		if !ok || back != id {
			t.Fatalf("ParseID(FormatID(%x)) = %x, %v", id, back, ok)
		}
	}
	if _, ok := ParseID("zz"); ok {
		t.Fatal("ParseID accepted garbage")
	}
	if _, ok := ParseID("0"); ok {
		t.Fatal("ParseID accepted zero id")
	}
	if _, ok := ParseID(""); ok {
		t.Fatal("ParseID accepted empty")
	}
}

func TestTraceIDsUniqueAndNonzero(t *testing.T) {
	tr, _ := newTestTracer(t)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		tt := tr.Start()
		if tt.ID() == 0 {
			t.Fatal("zero trace id")
		}
		if seen[tt.ID()] {
			t.Fatalf("duplicate id %x", tt.ID())
		}
		seen[tt.ID()] = true
	}
}

func TestViewSpanOrderingByStart(t *testing.T) {
	tr, _ := newTestTracer(t)
	tt := tr.Start()
	base := tt.start
	tt.AddSpan("late", base+100, base+200)
	tt.AddSpan("early", base+10, base+20)
	tt.Finish()
	v := tt.View()
	if len(v.Spans) != 2 || v.Spans[0].Name != "early" || v.Spans[1].Name != "late" {
		t.Fatalf("span order = %+v", v.Spans)
	}
	if v.Spans[0].StartNs != 10 || v.Spans[0].DurNs != 10 {
		t.Fatalf("span offsets = %+v", v.Spans[0])
	}
}
