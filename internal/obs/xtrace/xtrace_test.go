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

func newTestTracer(t *testing.T, cfg Config) (*Tracer, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	cfg.Clock = clk.now
	return New(cfg), clk
}

func TestNilReceiversSafe(t *testing.T) {
	var tr *Tracer
	if tr.Start() != nil || tr.Join(1) != nil {
		t.Fatal("nil tracer produced a trace")
	}
	tr.Reset()
	_ = tr.Snapshot()
	_ = tr.Len()
	_ = tr.All()
	_ = tr.Slowest(3)
	_ = tr.Get(1)

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
	_ = tt.View()
	_ = tt.SpanNames()
}

// TestRingEvictionDeterminism: fill the ring past capacity with a mix
// of pinned (slow/error) and unpinned traces, and assert exactly which
// survive — oldest unpinned evicted first, pinned only when nothing
// else is left.
func TestRingEvictionDeterminism(t *testing.T) {
	tr, clk := newTestTracer(t, Config{
		RingSize: 4,
		PinSlow:  time.Millisecond,
	})

	finish := func(verb string, slow bool) {
		tt := tr.Start()
		if tt == nil {
			t.Fatalf("Start returned nil")
		}
		tt.SetVerb(verb)
		if slow {
			clk.advance(2 * time.Millisecond)
		}
		tt.Finish()
	}

	// fast0 fast1 SLOW2 fast3 — ring full, nothing evicted.
	finish("fast0", false)
	finish("fast1", false)
	finish("SLOW2", true)
	finish("fast3", false)
	if tr.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", tr.Len())
	}

	// fast4 evicts fast0 (oldest unpinned); SLOW2 must survive.
	finish("fast4", false)
	wantOrder := []string{"fast4", "fast3", "SLOW2", "fast1"} // newest first
	got := verbs(tr.All())
	if fmt.Sprint(got) != fmt.Sprint(wantOrder) {
		t.Fatalf("after 1 eviction: got %v, want %v", got, wantOrder)
	}

	// Three more slow traces: evict fast1, fast3, fast4 in age order.
	finish("SLOW5", true)
	finish("SLOW6", true)
	finish("SLOW7", true)
	wantOrder = []string{"SLOW7", "SLOW6", "SLOW5", "SLOW2"}
	got = verbs(tr.All())
	if fmt.Sprint(got) != fmt.Sprint(wantOrder) {
		t.Fatalf("after pinned fill: got %v, want %v", got, wantOrder)
	}

	// Ring now all pinned: next completion evicts the OLDEST pinned.
	finish("SLOW8", true)
	wantOrder = []string{"SLOW8", "SLOW7", "SLOW6", "SLOW5"}
	got = verbs(tr.All())
	if fmt.Sprint(got) != fmt.Sprint(wantOrder) {
		t.Fatalf("after all-pinned eviction: got %v, want %v", got, wantOrder)
	}

	st := tr.Snapshot()
	if st.Evicted != 5 {
		t.Fatalf("Evicted = %d, want 5", st.Evicted)
	}
	if st.Pinned != 4 {
		t.Fatalf("Pinned = %d, want 4", st.Pinned)
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
	tr, _ := newTestTracer(t, Config{RingSize: 2, PinSlow: time.Hour})
	e := tr.Start()
	e.SetVerb("ERR")
	e.SetError()
	e.Finish()
	for i := 0; i < 5; i++ {
		tt := tr.Start()
		tt.SetVerb(fmt.Sprintf("ok%d", i))
		tt.Finish()
	}
	got := verbs(tr.All())
	if len(got) != 2 || got[1] != "ERR" {
		t.Fatalf("error trace not retained: ring = %v", got)
	}
}

func TestGetSlowestReset(t *testing.T) {
	tr, clk := newTestTracer(t, Config{RingSize: 8, PinSlow: time.Hour})
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
	if tr.Len() != 0 || tr.Get(ids[0]) != nil {
		t.Fatal("Reset did not clear the ring")
	}
}

func TestJoinAdoptsID(t *testing.T) {
	tr, _ := newTestTracer(t, Config{RingSize: 4})
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
	tr, _ := newTestTracer(t, Config{})
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
	tr, _ := newTestTracer(t, Config{RingSize: 4})
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
			_ = tt.SpanNames()
		}
	}()
	wg.Wait()
	names := tt.SpanNames()
	if len(names) != 2 || names[0] != "execute" || names[1] != "replack" {
		t.Fatalf("SpanNames = %v", names)
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
	tr, _ := newTestTracer(t, Config{RingSize: 1})
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
	tr, _ := newTestTracer(t, Config{})
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
