package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSlowLogRingEviction: a full ring drops its oldest entry, lists
// newest first, and numbers each entry with its push count.
func TestSlowLogRingEviction(t *testing.T) {
	r := NewRing[Command](3, nil)
	base := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		evicted := r.Push(Command{Line: fmt.Sprintf("CMD %d", i), Dur: time.Duration(i) * time.Millisecond,
			Time: base.Add(time.Duration(i) * time.Second), Addr: fmt.Sprintf("10.0.0.%d:1000", i), TraceID: uint64(i)})
		if evicted != (i >= 3) {
			t.Fatalf("push %d evicted = %v", i, evicted)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	got := r.Newest()
	if len(got) != 3 {
		t.Fatalf("Newest = %d entries", len(got))
	}
	for i, want := range []uint64{4, 3, 2} {
		e := got[i].V
		if got[i].Seq != want || e.Line != fmt.Sprintf("CMD %d", want) || e.TraceID != want ||
			e.Addr != fmt.Sprintf("10.0.0.%d:1000", want) {
			t.Errorf("entry %d = %+v, want push %d", i, e, want)
		}
	}
}

// TestSlowLogResetKeepsIDs: Reset empties the ring, and the IDs of
// entries pushed after it keep counting, so they are told apart from
// re-reads.
func TestSlowLogResetKeepsIDs(t *testing.T) {
	r := NewRing[Command](8, nil)
	r.Push(Command{Line: "A"})
	r.Push(Command{Line: "B"})
	r.Reset()
	if r.Len() != 0 || len(r.Newest()) != 0 {
		t.Fatalf("after reset: Len=%d Newest=%d", r.Len(), len(r.Newest()))
	}
	r.Push(Command{Line: "C"})
	if e := r.Newest(); len(e) != 1 || e[0].Seq != 2 || e[0].V.Line != "C" {
		t.Fatalf("post-reset entries = %+v, want single ID 2", e)
	}
}

// values lists a ring's held values, newest first.
func values[T any](r *Ring[T]) []T {
	var out []T
	for _, e := range r.Newest() {
		out = append(out, e.V)
	}
	return out
}

// TestRingPinnedEviction runs the trace ring's scenario: the oldest
// unpinned entry goes first, a pinned one only when nothing else is
// left, and then the oldest pinned.
func TestRingPinnedEviction(t *testing.T) {
	pinned := func(s string) bool { return s[0] == 'S' }
	r := NewRing(4, pinned)
	push := func(names ...string) {
		for _, n := range names {
			r.Push(n)
		}
	}
	check := func(step string, want ...string) {
		t.Helper()
		if got := values(r); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: ring = %v, want %v", step, got, want)
		}
	}
	push("fast0", "fast1", "SLOW2", "fast3")
	check("full", "fast3", "SLOW2", "fast1", "fast0")
	push("fast4")
	check("one eviction", "fast4", "fast3", "SLOW2", "fast1")
	push("SLOW5", "SLOW6", "SLOW7")
	check("pinned fill", "SLOW7", "SLOW6", "SLOW5", "SLOW2")
	push("SLOW8")
	check("all pinned", "SLOW8", "SLOW7", "SLOW6", "SLOW5")
}

// TestRingTakeNewest: the ship table's lookup takes the newest match
// only, and leaves the rest in order.
func TestRingTakeNewest(t *testing.T) {
	r := NewRing[[2]int](8, nil)
	for i, key := range []int{1, 2, 1, 3} {
		r.Push([2]int{key, i})
	}
	v, ok := r.TakeNewest(func(e [2]int) bool { return e[0] == 1 })
	if !ok || v != [2]int{1, 2} {
		t.Fatalf("TakeNewest = %v, %v, want [1 2]", v, ok)
	}
	if got := fmt.Sprint(values(r)); got != "[[3 3] [2 1] [1 0]]" || r.Len() != 3 {
		t.Fatalf("after take: %s (Len %d)", got, r.Len())
	}
	if _, ok := r.TakeNewest(func(e [2]int) bool { return e[0] == 9 }); ok {
		t.Fatal("TakeNewest found a missing key")
	}
	empty := NewRing[int](1, nil)
	if _, ok := empty.TakeNewest(func(int) bool { t.Fatal("empty ring called match"); return true }); ok {
		t.Fatal("empty ring gave an entry")
	}
}

// TestRingTakeAll: the replack table takes every entry an ack covers,
// in the order they were pushed.
func TestRingTakeAll(t *testing.T) {
	r := NewRing[int](8, nil)
	for _, v := range []int{5, 1, 7, 2, 9, 3} {
		r.Push(v)
	}
	got := r.TakeAll(func(v int) bool { return v <= 5 })
	if fmt.Sprint(got) != "[5 1 2 3]" {
		t.Fatalf("TakeAll = %v, want [5 1 2 3]", got)
	}
	if fmt.Sprint(values(r)) != "[9 7]" || r.Len() != 2 {
		t.Fatalf("left %v (Len %d), want [9 7]", values(r), r.Len())
	}
	if got := r.TakeAll(func(int) bool { return false }); got != nil {
		t.Fatalf("TakeAll of nothing = %v", got)
	}
}

// TestRingConcurrent pushes, takes and reads the length from several
// goroutines; under -race it checks the lock-free length read.
func TestRingConcurrent(t *testing.T) {
	r := NewRing[int](16, func(v int) bool { return v%5 == 0 })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				switch (g + i) % 4 {
				case 0, 1:
					r.Push(i)
				case 2:
					r.TakeNewest(func(v int) bool { return v%3 == 0 })
				default:
					r.TakeAll(func(v int) bool { return v%7 == 0 })
				}
				if n := r.Len(); n < 0 || n > 16 {
					t.Errorf("Len = %d outside [0, 16]", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := r.Len(); n != len(r.Newest()) {
		t.Fatalf("Len %d != %d held", n, len(r.Newest()))
	}
}

// BenchmarkRingPushFull pushes into a full 1024-entry ring, the ship
// table's state on a traced WAL server with no replica draining it.
func BenchmarkRingPushFull(b *testing.B) {
	r := NewRing[Command](1024, nil)
	for i := 0; i < 1024; i++ {
		r.Push(Command{})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Push(Command{TraceID: uint64(i)})
	}
}
