package traffic

import (
	"sort"
	"sync"

	"she"
)

// maxHotTracks caps distinct tracked sketches: telemetry must not let
// a CREATE/DROP churn workload grow an unbounded map. Inserts into
// sketches past the cap are simply not tracked until a DROP frees a
// slot (Forget).
const maxHotTracks = 1024

// hotCounters sizes each tracker's backing CountMin. 4096 counters ≈
// 16 KiB per tracked sketch — telemetry-grade accuracy (the sampled
// stream is 1/N of raw traffic, so collisions are rare) at a
// footprint that stays negligible beside the sketches themselves.
const hotCounters = 4096

// hotSeed salts the hot-key CountMin hashes, fixed and distinct from
// the served sketches' seeds so telemetry error is uncorrelated with
// the traffic being measured.
const hotSeed = 0x707c0ffee7ea11ee

// HotEntry is one reported hot key. Count is the estimated raw
// (unsampled) window count — the sampled estimate scaled by the
// sampling rate; Sampled is the unscaled estimate it came from.
type HotEntry struct {
	Key     uint64
	Count   uint64
	Sampled uint64
}

// HotStat is one sketch's hot-key snapshot for /metrics.
type HotStat struct {
	Sketch      string
	SampledKeys uint64
	Entries     []HotEntry
}

// hotTrack is one sketch's tracker: a sliding-window TopK fed under
// its own mutex — she.TopK is not concurrency-safe, and the sampler's
// lock discipline is exactly "hold mu across Insert and Snapshot".
type hotTrack struct {
	mu      sync.Mutex
	topk    *she.TopK
	sampled uint64 // sampled keys fed in
}

// hotRegistry maps sketch names to their trackers. Reads (the sampled
// insert path) take the RLock; track creation and Forget take the
// write lock.
type hotRegistry struct {
	mu     sync.RWMutex
	tracks map[string]*hotTrack
}

// note feeds one sampled insert's keys into the named sketch's
// tracker, creating it on first contact. name arrives as bytes from
// the fast path's tokenizer; the map lookup does not retain it.
func (h *hotRegistry) note(name []byte, keys []uint64) {
	h.mu.RLock()
	tr := h.tracks[string(name)] // no alloc: map lookup by []byte conversion
	h.mu.RUnlock()
	if tr == nil {
		tr = h.create(string(name))
		if tr == nil {
			return // at capacity
		}
	}
	tr.mu.Lock()
	for _, k := range keys {
		tr.topk.Insert(k)
	}
	tr.sampled += uint64(len(keys))
	tr.mu.Unlock()
}

func (h *hotRegistry) create(name string) *hotTrack {
	h.mu.Lock()
	defer h.mu.Unlock()
	if tr, ok := h.tracks[name]; ok {
		return tr
	}
	if h.tracks == nil {
		h.tracks = make(map[string]*hotTrack)
	}
	if len(h.tracks) >= maxHotTracks {
		return nil
	}
	topk, err := she.NewTopK(hotKeysK, hotCounters, she.Options{
		Window: hotWindow,
		Seed:   hotSeed,
	})
	if err != nil {
		return nil // impossible with the package's own constants
	}
	tr := &hotTrack{topk: topk}
	h.tracks[name] = tr
	return tr
}

// Forget drops a sketch's tracker (its sketch was dropped).
func (t *Tracker) Forget(name string) {
	if t == nil {
		return
	}
	t.hot.mu.Lock()
	delete(t.hot.tracks, name)
	t.hot.mu.Unlock()
}

// top reports one sketch's top-k, counts scaled by rate.
func (h *hotRegistry) top(name string, k, rate int) ([]HotEntry, bool) {
	h.mu.RLock()
	tr := h.tracks[name]
	h.mu.RUnlock()
	if tr == nil {
		return nil, false
	}
	if k <= 0 {
		k = hotKeysK
	}
	return tr.entries(k, rate), true
}

// entries snapshots one track under its mutex.
func (tr *hotTrack) entries(k, rate int) []HotEntry {
	if rate <= 0 {
		rate = 1
	}
	tr.mu.Lock()
	snap := tr.topk.Snapshot(k)
	tr.mu.Unlock()
	out := make([]HotEntry, len(snap))
	for i, e := range snap {
		out[i] = HotEntry{Key: e.Key, Count: e.Count * uint64(rate), Sampled: e.Count}
	}
	return out
}

// names lists tracked sketches, sorted for stable wire output.
func (h *hotRegistry) names() []string {
	h.mu.RLock()
	out := make([]string, 0, len(h.tracks))
	for name := range h.tracks {
		out = append(out, name)
	}
	h.mu.RUnlock()
	sort.Strings(out)
	return out
}

// stats snapshots every track for /metrics, sorted by sketch name so
// metric series order is stable scrape to scrape.
func (h *hotRegistry) stats(rate int) []HotStat {
	names := h.names()
	out := make([]HotStat, 0, len(names))
	for _, name := range names {
		h.mu.RLock()
		tr := h.tracks[name]
		h.mu.RUnlock()
		if tr == nil {
			continue
		}
		tr.mu.Lock()
		sampled := tr.sampled
		tr.mu.Unlock()
		out = append(out, HotStat{
			Sketch:      name,
			SampledKeys: sampled,
			Entries:     tr.entries(0, rate),
		})
	}
	return out
}

// hottest scans every track for the single heaviest key.
func (h *hotRegistry) hottest(rate int) (string, HotEntry, bool) {
	var bestName string
	var best HotEntry
	for _, st := range h.stats(rate) {
		if len(st.Entries) > 0 && st.Entries[0].Count > best.Count {
			bestName, best = st.Sketch, st.Entries[0]
		}
	}
	return bestName, best, bestName != ""
}
