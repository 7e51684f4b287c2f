package exact

import (
	"math/rand"
	"testing"
)

// naiveWindow recomputes statistics from a plain slice — the model the
// ring implementation is checked against.
type naiveWindow struct {
	items []uint64
	n     int
}

func (w *naiveWindow) push(k uint64) {
	w.items = append(w.items, k)
	if len(w.items) > w.n {
		w.items = w.items[1:]
	}
}

func (w *naiveWindow) freq(k uint64) uint64 {
	var c uint64
	for _, x := range w.items {
		if x == k {
			c++
		}
	}
	return c
}

func (w *naiveWindow) card() int {
	set := map[uint64]bool{}
	for _, x := range w.items {
		set[x] = true
	}
	return len(set)
}

func TestWindowMatchesNaiveModel(t *testing.T) {
	const N = 64
	w := NewWindow(N)
	ref := &naiveWindow{n: N}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(40))
		w.Push(k)
		ref.push(k)
		probe := uint64(rng.Intn(40))
		if got, want := w.Frequency(probe), ref.freq(probe); got != want {
			t.Fatalf("step %d: Frequency(%d)=%d, want %d", i, probe, got, want)
		}
		if got, want := w.Contains(probe), ref.freq(probe) > 0; got != want {
			t.Fatalf("step %d: Contains(%d)=%v, want %v", i, probe, got, want)
		}
		if got, want := w.Cardinality(), ref.card(); got != want {
			t.Fatalf("step %d: Cardinality=%d, want %d", i, got, want)
		}
		if got, want := w.Len(), len(ref.items); got != want {
			t.Fatalf("step %d: Len=%d, want %d", i, got, want)
		}
	}
}

// pushEvicted applies one push to the model and returns the key that
// left the window entirely, mirroring Window.PushEvicted semantics.
func (w *naiveWindow) pushEvicted(k uint64) (uint64, bool) {
	var old uint64
	evicted := false
	if len(w.items) == w.n {
		old = w.items[0]
		evicted = true
	}
	w.push(k)
	if evicted && w.freq(old) == 0 {
		return old, true
	}
	return 0, false
}

// TestWindowPropertyModel drives Window through randomized
// push/evict/reset sequences — including the auditor's
// reuse-after-Reset pattern — and checks every observable against the
// brute-force slice model after each step.
func TestWindowPropertyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(48)
		alphabet := uint64(1 + rng.Intn(24))
		w := NewWindow(n)
		ref := &naiveWindow{n: n}
		for i := 0; i < 2000; i++ {
			switch {
			case rng.Intn(200) == 0:
				w.Reset()
				ref.items = ref.items[:0]
			default:
				k := uint64(rng.Intn(int(alphabet)))
				gone, ok := w.PushEvicted(k)
				wantGone, wantOK := ref.pushEvicted(k)
				if ok != wantOK || (ok && gone != wantGone) {
					t.Fatalf("trial %d step %d: PushEvicted(%d) = (%d,%v), want (%d,%v)",
						trial, i, k, gone, ok, wantGone, wantOK)
				}
			}
			if got, want := w.Len(), len(ref.items); got != want {
				t.Fatalf("trial %d step %d: Len=%d, want %d", trial, i, got, want)
			}
			if got, want := w.Cardinality(), ref.card(); got != want {
				t.Fatalf("trial %d step %d: Cardinality=%d, want %d", trial, i, got, want)
			}
			if got := w.Cap(); got != n {
				t.Fatalf("trial %d step %d: Cap=%d, want %d", trial, i, got, n)
			}
			probe := uint64(rng.Intn(int(alphabet)))
			if got, want := w.Frequency(probe), ref.freq(probe); got != want {
				t.Fatalf("trial %d step %d: Frequency(%d)=%d, want %d", trial, i, probe, got, want)
			}
			if got, want := w.Contains(probe), ref.freq(probe) > 0; got != want {
				t.Fatalf("trial %d step %d: Contains(%d)=%v, want %v", trial, i, probe, got, want)
			}
		}
	}
}

// TestWindowResetReuse pins the reuse contract: after Reset the window
// behaves exactly like a fresh one, with no reallocation of the ring.
func TestWindowResetReuse(t *testing.T) {
	w := NewWindow(4)
	for _, k := range []uint64{1, 2, 3, 4, 5} {
		w.Push(k)
	}
	w.Reset()
	if w.Len() != 0 || w.Cardinality() != 0 || w.Contains(3) {
		t.Fatalf("after Reset: Len=%d Cardinality=%d", w.Len(), w.Cardinality())
	}
	if w.Cap() != 4 {
		t.Fatalf("Reset changed capacity to %d", w.Cap())
	}
	// Refill past capacity: eviction order restarts from scratch.
	for _, k := range []uint64{7, 8, 9, 10, 11} {
		w.Push(k)
	}
	if w.Contains(7) || !w.Contains(8) || w.Len() != 4 {
		t.Fatal("eviction order wrong after Reset reuse")
	}
}

func TestWindowPartialFill(t *testing.T) {
	w := NewWindow(100)
	for k := uint64(0); k < 10; k++ {
		w.Push(k)
	}
	if w.Len() != 10 || w.Cardinality() != 10 {
		t.Fatalf("Len=%d Cardinality=%d after 10 pushes", w.Len(), w.Cardinality())
	}
	if !w.Contains(5) || w.Contains(50) {
		t.Fatal("membership wrong on partially filled window")
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for _, k := range []uint64{1, 2, 3, 4} {
		w.Push(k)
	}
	if w.Contains(1) {
		t.Fatal("evicted key still reported present")
	}
	for _, k := range []uint64{2, 3, 4} {
		if !w.Contains(k) {
			t.Fatalf("key %d missing from window", k)
		}
	}
}

// TestWindowAt reads entries by depth, newest first, across the ring's
// wrap point.
func TestWindowAt(t *testing.T) {
	w := NewWindow(4)
	for k := uint64(1); k <= 6; k++ {
		w.Push(k)
		for d := 0; d < w.Len(); d++ {
			if got := w.At(d); got != k-uint64(d) {
				t.Fatalf("after pushing %d: At(%d) = %d, want %d", k, d, got, k-uint64(d))
			}
		}
	}
}

func TestWindowDistinctIteration(t *testing.T) {
	w := NewWindow(10)
	for _, k := range []uint64{7, 7, 8, 9, 9, 9} {
		w.Push(k)
	}
	got := map[uint64]uint64{}
	w.Distinct(func(k, c uint64) { got[k] = c })
	want := map[uint64]uint64{7: 2, 8: 1, 9: 3}
	if len(got) != len(want) {
		t.Fatalf("Distinct visited %d keys, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("Distinct count for %d = %d, want %d", k, got[k], c)
		}
	}
}

func TestWindowPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	NewWindow(0)
}

func TestJaccard(t *testing.T) {
	a, b := NewWindow(10), NewWindow(10)
	// A = {1,2,3}, B = {2,3,4}: J = 2/4.
	for _, k := range []uint64{1, 2, 3} {
		a.Push(k)
	}
	for _, k := range []uint64{2, 3, 4} {
		b.Push(k)
	}
	if got := Jaccard(a, b); got != 0.5 {
		t.Fatalf("Jaccard=%v, want 0.5", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Fatalf("self Jaccard=%v, want 1", got)
	}
	empty := NewWindow(5)
	if got := Jaccard(empty, empty); got != 0 {
		t.Fatalf("empty Jaccard=%v, want 0", got)
	}
	if got := Jaccard(a, empty); got != 0 {
		t.Fatalf("half-empty Jaccard=%v, want 0", got)
	}
}

func TestJaccardSymmetric(t *testing.T) {
	a, b := NewWindow(50), NewWindow(50)
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 50; i++ {
		a.Push(uint64(rng.Intn(30)))
		b.Push(uint64(rng.Intn(30)))
	}
	if Jaccard(a, b) != Jaccard(b, a) {
		t.Fatal("Jaccard is not symmetric")
	}
}
