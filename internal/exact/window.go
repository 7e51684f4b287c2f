// Package exact provides exact (non-approximate) sliding-window
// statistics — membership, cardinality, per-key frequency and Jaccard
// similarity over the last N items. The experiment harness measures
// every sketch's error against these structures, and the "Ideal"
// baseline rebuilds fixed-window sketches from their contents.
package exact

// Window maintains the multiset of the most recent N keys of a stream:
// a ring buffer for order and a count map for statistics. All
// operations are O(1) amortized.
type Window struct {
	ring   []uint64
	counts map[uint64]uint64
	head   int // next write position
	size   int // number of valid entries (≤ len(ring))
}

// NewWindow returns an empty window of capacity n.
func NewWindow(n int) *Window {
	if n <= 0 {
		panic("exact: window capacity must be positive")
	}
	return &Window{ring: make([]uint64, n), counts: make(map[uint64]uint64)}
}

// Push appends key, evicting the oldest entry once the window is full.
func (w *Window) Push(key uint64) { w.PushEvicted(key) }

// PushEvicted appends key like Push and reports the key whose last
// in-window occurrence was evicted to make room, if any. A key whose
// older copies remain in the window — or that is the key being pushed —
// has not left the window and is not reported.
func (w *Window) PushEvicted(key uint64) (gone uint64, ok bool) {
	if w.size == len(w.ring) {
		old := w.ring[w.head]
		if c := w.counts[old]; c <= 1 {
			delete(w.counts, old)
			if old != key {
				gone, ok = old, true
			}
		} else {
			w.counts[old] = c - 1
		}
	} else {
		w.size++
	}
	w.ring[w.head] = key
	w.counts[key]++
	w.head++
	if w.head == len(w.ring) {
		w.head = 0
	}
	return gone, ok
}

// Reset empties the window for reuse without reallocating the ring or
// the count map, so a long-lived shadow window (see internal/audit) can
// be cleared in place.
func (w *Window) Reset() {
	w.head, w.size = 0, 0
	clear(w.counts)
}

// Contains reports whether key occurs in the window.
func (w *Window) Contains(key uint64) bool {
	_, ok := w.counts[key]
	return ok
}

// Frequency returns key's occurrence count within the window.
func (w *Window) Frequency(key uint64) uint64 { return w.counts[key] }

// Cardinality returns the number of distinct keys in the window.
func (w *Window) Cardinality() int { return len(w.counts) }

// Len returns the number of items currently held (≤ capacity).
func (w *Window) Len() int { return w.size }

// Cap returns the window capacity N.
func (w *Window) Cap() int { return len(w.ring) }

// At returns the entry depth items back from the newest: At(0) is the
// last key pushed, At(Len()-1) the oldest held. depth must be below Len.
func (w *Window) At(depth int) uint64 {
	i := w.head - 1 - depth
	if i < 0 {
		i += len(w.ring)
	}
	return w.ring[i]
}

// Distinct calls fn for every distinct key in the window with its
// count. Iteration order is unspecified.
func (w *Window) Distinct(fn func(key uint64, count uint64)) {
	for k, c := range w.counts {
		fn(k, c)
	}
}

// Jaccard returns the exact Jaccard index |A∩B| / |A∪B| between the
// distinct-key sets of two windows. Two empty windows have similarity
// zero by convention.
func Jaccard(a, b *Window) float64 {
	small, large := a, b
	if len(small.counts) > len(large.counts) {
		small, large = large, small
	}
	inter := 0
	for k := range small.counts {
		if _, ok := large.counts[k]; ok {
			inter++
		}
	}
	union := len(a.counts) + len(b.counts) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
