package traffic

import (
	"sync"

	"she"
)

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

// Track is one sketch's hot-key tracker: a sliding-window TopK fed
// under its own mutex — she.TopK is not concurrency-safe, and the
// sampler's lock discipline is exactly "hold mu across Insert and
// Snapshot". The sketch it describes owns it, so it lives and dies with
// that sketch; a nil *Track is the track of a sketch with no sampled
// insert yet, which reports nothing.
type Track struct {
	mu      sync.Mutex
	topk    *she.TopK
	sampled uint64 // sampled keys fed in
}

// NewTrack returns an empty track.
func NewTrack() *Track {
	topk, err := she.NewTopK(hotKeysK, hotCounters, she.Options{
		Window: hotWindow,
		Seed:   hotSeed,
	})
	if err != nil {
		panic(err) // impossible with the package's own constants
	}
	return &Track{topk: topk}
}

// Note feeds one sampled insert's keys into the track.
func (tr *Track) Note(keys []uint64) {
	tr.mu.Lock()
	for _, k := range keys {
		tr.topk.Insert(k)
	}
	tr.sampled += uint64(len(keys))
	tr.mu.Unlock()
}

// Top reports the track's top-k sampled keys, heaviest first, with
// counts scaled back to estimated raw traffic (sampled estimate × rate,
// the 1-in-N traffic rate), and how many sampled keys were fed in.
// k <= 0 means hotKeysK.
func (tr *Track) Top(k, rate int) (entries []HotEntry, sampled uint64) {
	if tr == nil {
		return nil, 0
	}
	if rate <= 0 {
		rate = 1
	}
	tr.mu.Lock()
	snap := tr.topk.Snapshot(k)
	sampled = tr.sampled
	tr.mu.Unlock()
	entries = make([]HotEntry, len(snap))
	for i, e := range snap {
		entries[i] = HotEntry{Key: e.Key, Count: e.Count * uint64(rate), Sampled: e.Count}
	}
	return entries, sampled
}

// MemoryBytes is the track's footprint for the memory budget: what its
// TopK holds allocated, counted as the sketches it rides beside are.
func (tr *Track) MemoryBytes() int64 {
	if tr == nil {
		return 0
	}
	return int64(tr.topk.ResidentBytes())
}
