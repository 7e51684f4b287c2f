package she

import (
	"container/heap"
	"fmt"
	"sort"
)

// TopK tracks the heaviest keys of the sliding window: a CountMin
// sketch estimates per-key window frequencies and a bounded candidate
// heap remembers the keys whose estimates were largest when they were
// last seen. Because the window slides, a candidate's estimate decays
// on its own; Top re-estimates every candidate at query time, so a flow
// that went quiet drops out within a window without any explicit
// eviction logic — the SHE cleaning does the forgetting.
//
// The classic guarantee carries over from SHE-CM: estimates never
// undercount an in-window key, so no true heavy hitter can be displaced
// from the candidate set by estimation error alone (only by the
// candidate capacity, which is 4× K).
type TopK struct {
	cm    *CountMin
	k     int
	cand  candidateHeap
	index map[uint64]int // key → heap position
}

// TopEntry is one reported heavy hitter.
type TopEntry struct {
	Key   uint64
	Count uint64
}

// NewTopK returns a tracker for the k heaviest window keys, backed by a
// CountMin sketch with the given number of counters.
func NewTopK(k, counters int, opts Options) (*TopK, error) {
	if k <= 0 {
		return nil, fmt.Errorf("she: top-k needs a positive k, got %d", k)
	}
	cm, err := NewCountMin(counters, opts)
	if err != nil {
		return nil, err
	}
	return &TopK{
		cm:    cm,
		k:     k,
		index: make(map[uint64]int),
	}, nil
}

// Insert records one occurrence of key and refreshes its candidacy.
func (t *TopK) Insert(key uint64) {
	t.cm.Insert(key)
	est := t.cm.Frequency(key)
	if pos, ok := t.index[key]; ok {
		t.cand[pos].est = est
		heap.Fix(&t.cand, pos)
		return
	}
	cap := 4 * t.k
	if len(t.cand) < cap {
		heap.Push(&t.cand, &candidate{key: key, est: est, owner: t})
		return
	}
	// Full: a newcomer must beat the current minimum — but the
	// minimum's estimate may be stale (its window share decayed), so
	// refresh it first.
	min := t.cand[0]
	min.est = t.cm.Frequency(min.key)
	heap.Fix(&t.cand, 0)
	min = t.cand[0]
	if est <= min.est {
		return
	}
	delete(t.index, min.key)
	min.key, min.est = key, est
	t.index[key] = 0
	heap.Fix(&t.cand, 0)
}

// Top returns up to k entries, heaviest first, with freshly
// re-estimated window counts. Candidates whose windows have emptied are
// dropped.
func (t *TopK) Top() []TopEntry { return t.Snapshot(t.k) }

// Snapshot returns up to k entries (any k, not just the tracker's
// own), heaviest first, with freshly re-estimated window counts —
// Top's read path with a caller-chosen width and no merging of
// internal state. Like every TopK method it is not concurrency-safe;
// it exists for wrappers that serialize access themselves (a sampler
// holding its own mutex) and want one call that never grows the
// candidate set, so the lock hold is bounded by the candidate
// capacity (4·K). k <= 0 means the tracker's configured k.
func (t *TopK) Snapshot(k int) []TopEntry {
	if k <= 0 {
		k = t.k
	}
	entries := make([]TopEntry, 0, len(t.cand))
	for _, c := range t.cand {
		est := t.cm.Frequency(c.key)
		if est == 0 {
			continue
		}
		entries = append(entries, TopEntry{Key: c.key, Count: est})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	return entries
}

// K returns the configured report width.
func (t *TopK) K() int { return t.k }

// Frequency exposes the underlying estimator.
func (t *TopK) Frequency(key uint64) uint64 { return t.cm.Frequency(key) }

// MemoryBits returns the sketch footprint (the candidate heap adds
// O(k) words on top).
func (t *TopK) MemoryBits() int { return t.cm.MemoryBits() }

// ResidentBytes returns what the tracker holds allocated: the CountMin's
// resident bytes plus, over-estimated, the candidate heap and its index
// at their capacity of 4·K — per candidate a heap slot (8 B), the
// candidate (24 B in a 32 B size class) and an index entry (16 B, 48 B
// with the map's control bytes, load-factor slack and growth headroom).
func (t *TopK) ResidentBytes() int { return t.cm.ResidentBytes() + 4*t.k*(8+32+48) }

// candidate is one heap entry; owner backlinks let the heap maintain
// the key→position index during swaps.
type candidate struct {
	key   uint64
	est   uint64
	owner *TopK
}

// candidateHeap is a min-heap on estimated count.
type candidateHeap []*candidate

func (h candidateHeap) Len() int           { return len(h) }
func (h candidateHeap) Less(i, j int) bool { return h[i].est < h[j].est }
func (h candidateHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].owner.index[h[i].key] = i
	h[j].owner.index[h[j].key] = j
}

func (h *candidateHeap) Push(x any) {
	c := x.(*candidate)
	c.owner.index[c.key] = len(*h)
	*h = append(*h, c)
}

func (h *candidateHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	delete(c.owner.index, c.key)
	return c
}
