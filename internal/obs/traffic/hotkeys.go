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

// HotKeys maps sketch names to their hot-key tracks; the zero value is
// empty and ready. Reads (the sampled insert path) take the RLock;
// track creation and Forget take the write lock.
type HotKeys struct {
	mu     sync.RWMutex
	tracks map[string]*hotTrack
}

// Note feeds one sampled insert's keys into the named sketch's
// track, creating it on first contact. name arrives as bytes from
// the fast path's tokenizer; the map lookup does not retain it.
func (h *HotKeys) Note(name []byte, keys []uint64) {
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

func (h *HotKeys) create(name string) *hotTrack {
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

// Forget drops a sketch's track (its sketch was dropped).
func (h *HotKeys) Forget(name string) {
	h.mu.Lock()
	delete(h.tracks, name)
	h.mu.Unlock()
}

// Top reports the named sketch's top-k sampled keys, heaviest first,
// with counts scaled back to estimated raw traffic (sampled estimate ×
// rate, the 1-in-N traffic rate). k <= 0 means hotKeysK; ok is false
// when the sketch has no tracked traffic.
func (h *HotKeys) Top(name string, k, rate int) (entries []HotEntry, ok bool) {
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
func (h *HotKeys) names() []string {
	h.mu.RLock()
	out := make([]string, 0, len(h.tracks))
	for name := range h.tracks {
		out = append(out, name)
	}
	h.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Stats snapshots every track for /metrics, counts scaled by rate as
// Top scales them, sorted by sketch name so metric series order is
// stable scrape to scrape.
func (h *HotKeys) Stats(rate int) []HotStat {
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

// Hottest returns the single heaviest sampled key across every track,
// count scaled by rate — the overload ladder's blame line. ok is false
// when nothing is tracked.
func (h *HotKeys) Hottest(rate int) (sketch string, e HotEntry, ok bool) {
	var bestName string
	var best HotEntry
	for _, st := range h.Stats(rate) {
		if len(st.Entries) > 0 && st.Entries[0].Count > best.Count {
			bestName, best = st.Sketch, st.Entries[0]
		}
	}
	return bestName, best, bestName != ""
}
