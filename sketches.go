package she

import (
	"she/internal/analysis"
	"she/internal/core"
)

// BloomFilter answers sliding-window membership queries with one-sided
// error: a key inserted within the window is always reported present
// (up to the on-demand-cleaning slack the paper's Eq. 1 bounds); a key
// outside it is reported present only with the false-positive rate the
// paper's §5.2 models.
type BloomFilter struct {
	inner *core.BF
}

// NewBloomFilter returns a sliding-window Bloom filter with bits total
// bits.
func NewBloomFilter(bits int, opts Options) (*BloomFilter, error) {
	inner, err := core.NewBF(bits, opts.groupSize(), opts.hashes(), opts.config(core.DefaultAlphaBF))
	if err != nil {
		return nil, err
	}
	return &BloomFilter{inner: inner}, nil
}

// Insert records key as the next item of the stream.
func (f *BloomFilter) Insert(key uint64) { f.inner.Insert(key) }

// InsertBatch records keys as the stream's next len(keys) items, in
// slice order — the same state as calling Insert on each.
func (f *BloomFilter) InsertBatch(keys []uint64) { f.inner.InsertBatch(keys) }

// InsertAt records key at an explicit timestamp (time-based windows).
func (f *BloomFilter) InsertAt(key, t uint64) { f.inner.InsertAt(key, t) }

// Query reports whether key may have appeared within the window.
func (f *BloomFilter) Query(key uint64) bool { return f.inner.Query(key) }

// QueryAt reports membership for the window ending at timestamp t.
func (f *BloomFilter) QueryAt(key, t uint64) bool { return f.inner.QueryAt(key, t) }

// MemoryBits returns the structure's memory footprint in bits, as the
// paper counts it: the cells plus one time-mark bit per group.
func (f *BloomFilter) MemoryBits() int { return f.inner.MemoryBits() }

// ResidentBytes returns what the structure holds allocated: the cell
// words plus the group clock, which spends a 64-bit word a group (the
// group's offset beside its mark) where MemoryBits counts the mark bit
// alone. It is the figure to size a process by.
func (f *BloomFilter) ResidentBytes() int { return f.inner.ResidentBytes() }

// Bitmap estimates the number of distinct keys within the sliding
// window by linear counting. Suited to windows whose cardinality is
// within a small factor of the bit budget; for massive cardinalities
// use HyperLogLog.
type Bitmap struct {
	inner *core.BM
}

// NewBitmap returns a sliding-window bitmap counter with bits total
// bits.
func NewBitmap(bits int, opts Options) (*Bitmap, error) {
	inner, err := core.NewBM(bits, opts.groupSize(), opts.config(core.DefaultAlphaTwoSided))
	if err != nil {
		return nil, err
	}
	return &Bitmap{inner: inner}, nil
}

// Insert records key as the next item of the stream.
func (b *Bitmap) Insert(key uint64) { b.inner.Insert(key) }

// InsertAt records key at an explicit timestamp.
func (b *Bitmap) InsertAt(key, t uint64) { b.inner.InsertAt(key, t) }

// Cardinality estimates the distinct count within the window.
func (b *Bitmap) Cardinality() float64 { return b.inner.EstimateCardinality() }

// CardinalityAt estimates the distinct count for the window ending at
// timestamp t.
func (b *Bitmap) CardinalityAt(t uint64) float64 { return b.inner.EstimateCardinalityAt(t) }

// MemoryBits returns the structure's memory footprint in bits.
func (b *Bitmap) MemoryBits() int { return b.inner.MemoryBits() }

// HyperLogLog estimates the number of distinct keys within the sliding
// window; relative error ≈ 1.04/√registers independent of cardinality.
type HyperLogLog struct {
	inner *core.HLL
}

// NewHyperLogLog returns a sliding-window HyperLogLog with the given
// number of 5-bit registers (each register is its own cleaning group).
//
// Size registers well below the window's expected distinct count —
// like plain HyperLogLog it is a massive-cardinality estimator, and the
// sliding variant additionally needs every register touched at least
// once per cleaning cycle for its lazy cleaning to stay accurate (the
// paper's Eq. 1). With more registers than distinct keys, use Bitmap.
func NewHyperLogLog(registers int, opts Options) (*HyperLogLog, error) {
	inner, err := core.NewHLL(registers, opts.config(core.DefaultAlphaTwoSided))
	if err != nil {
		return nil, err
	}
	return &HyperLogLog{inner: inner}, nil
}

// Insert records key as the next item of the stream.
func (h *HyperLogLog) Insert(key uint64) { h.inner.Insert(key) }

// InsertBatch records keys as the stream's next len(keys) items, in
// slice order — the same state as calling Insert on each.
func (h *HyperLogLog) InsertBatch(keys []uint64) { h.inner.InsertBatch(keys) }

// InsertAt records key at an explicit timestamp.
func (h *HyperLogLog) InsertAt(key, t uint64) { h.inner.InsertAt(key, t) }

// Cardinality estimates the distinct count within the window.
func (h *HyperLogLog) Cardinality() float64 { return h.inner.EstimateCardinality() }

// CardinalityAt estimates the distinct count for the window ending at
// timestamp t.
func (h *HyperLogLog) CardinalityAt(t uint64) float64 { return h.inner.EstimateCardinalityAt(t) }

// MemoryBits returns the structure's memory footprint in bits.
func (h *HyperLogLog) MemoryBits() int { return h.inner.MemoryBits() }

// ResidentBytes returns what the structure holds allocated (see
// BloomFilter.ResidentBytes).
func (h *HyperLogLog) ResidentBytes() int { return h.inner.ResidentBytes() }

// CountMin estimates per-key frequencies within the sliding window and
// never underestimates an in-window key's count (up to the on-demand
// cleaning slack).
type CountMin struct {
	inner *core.CM
}

// NewCountMin returns a sliding-window Count-Min sketch with counters
// 32-bit counters.
func NewCountMin(counters int, opts Options) (*CountMin, error) {
	inner, err := core.NewCM(counters, opts.groupSize(), opts.hashes(), 32, opts.config(core.DefaultAlphaCM))
	if err != nil {
		return nil, err
	}
	return &CountMin{inner: inner}, nil
}

// Insert records one occurrence of key as the next item of the stream.
func (c *CountMin) Insert(key uint64) { c.inner.Insert(key) }

// InsertBatch records one occurrence of each key as the stream's next
// len(keys) items, in slice order — the same state as calling Insert on
// each.
func (c *CountMin) InsertBatch(keys []uint64) { c.inner.InsertBatch(keys) }

// InsertAt records one occurrence of key at an explicit timestamp.
func (c *CountMin) InsertAt(key, t uint64) { c.inner.InsertAt(key, t) }

// Frequency estimates key's occurrence count within the window.
func (c *CountMin) Frequency(key uint64) uint64 { return c.inner.EstimateFrequency(key) }

// FrequencyAt estimates key's count for the window ending at t.
func (c *CountMin) FrequencyAt(key, t uint64) uint64 { return c.inner.EstimateFrequencyAt(key, t) }

// MemoryBits returns the structure's memory footprint in bits.
func (c *CountMin) MemoryBits() int { return c.inner.MemoryBits() }

// ResidentBytes returns what the structure holds allocated (see
// BloomFilter.ResidentBytes).
func (c *CountMin) ResidentBytes() int { return c.inner.ResidentBytes() }

// CountMinCU is the conservative-update variant of CountMin (SHE-CU,
// an extension beyond the paper's five structures): insertions
// increment only the hashed counters at the current minimum, cutting
// over-estimation error well below CountMin's at the same memory. In
// exchange the never-underestimates guarantee becomes approximate —
// rare, small undercounts are possible when a key's counters were
// cleaned at very different times; use CountMin when strict
// one-sidedness matters.
type CountMinCU struct {
	inner *core.CU
}

// NewCountMinCU returns a sliding-window conservative-update sketch
// with counters 32-bit counters.
func NewCountMinCU(counters int, opts Options) (*CountMinCU, error) {
	inner, err := core.NewCU(counters, opts.groupSize(), opts.hashes(), opts.config(core.DefaultAlphaCM))
	if err != nil {
		return nil, err
	}
	return &CountMinCU{inner: inner}, nil
}

// Insert records one occurrence of key as the next item of the stream.
func (c *CountMinCU) Insert(key uint64) { c.inner.Insert(key) }

// InsertAt records one occurrence of key at an explicit timestamp.
func (c *CountMinCU) InsertAt(key, t uint64) { c.inner.InsertAt(key, t) }

// Frequency estimates key's occurrence count within the window.
func (c *CountMinCU) Frequency(key uint64) uint64 { return c.inner.EstimateFrequency(key) }

// FrequencyAt estimates key's count for the window ending at t.
func (c *CountMinCU) FrequencyAt(key, t uint64) uint64 { return c.inner.EstimateFrequencyAt(key, t) }

// MemoryBits returns the structure's memory footprint in bits.
func (c *CountMinCU) MemoryBits() int { return c.inner.MemoryBits() }

// MinHash estimates the Jaccard similarity between the sliding windows
// of two streams A and B that share one logical clock (each InsertA/
// InsertB advances it).
type MinHash struct {
	inner *core.MH
}

// NewMinHash returns a sliding-window MinHash pair with the given
// signature size per stream.
func NewMinHash(signatures int, opts Options) (*MinHash, error) {
	inner, err := core.NewMH(signatures, opts.config(core.DefaultAlphaTwoSided))
	if err != nil {
		return nil, err
	}
	return &MinHash{inner: inner}, nil
}

// InsertA records key on stream A.
func (m *MinHash) InsertA(key uint64) { m.inner.InsertA(key) }

// InsertB records key on stream B.
func (m *MinHash) InsertB(key uint64) { m.inner.InsertB(key) }

// InsertAAt and InsertBAt record keys at explicit timestamps.
func (m *MinHash) InsertAAt(key, t uint64) { m.inner.InsertAAt(key, t) }

// InsertBAt records key on stream B at an explicit timestamp.
func (m *MinHash) InsertBAt(key, t uint64) { m.inner.InsertBAt(key, t) }

// Similarity estimates the Jaccard index of the two windows.
func (m *MinHash) Similarity() float64 { return m.inner.Similarity() }

// SimilarityAt estimates the Jaccard index at timestamp t.
func (m *MinHash) SimilarityAt(t uint64) float64 { return m.inner.SimilarityAt(t) }

// MemoryBits returns the footprint of both signature arrays.
func (m *MinHash) MemoryBits() int { return m.inner.MemoryBits() }

// OptimalBloomAlpha returns the Eq. 2 optimal cleaning slack α for a
// Bloom filter with bits total bits in groups of groupSize, k hash
// functions, and an expected window cardinality of cardinality distinct
// keys. Pass the result in Options.Alpha to minimize the modeled false
// positive rate.
func OptimalBloomAlpha(bits, groupSize, k int, cardinality float64) (float64, error) {
	groups := (bits + groupSize - 1) / groupSize
	return analysis.OptimalAlpha(groupSize, groups, cardinality, k)
}
