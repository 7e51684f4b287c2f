package core

import (
	"fmt"

	"she/internal/bitpack"
	"she/internal/hashing"
	"she/internal/sketch"
)

// HLL is SHE-HLL (§4.3): HyperLogLog over a sliding window. Every 5-bit
// register is its own group (w = 1) with a 1-bit time mark. Queries
// gather the k registers whose age is legal and scale the standard HLL
// estimate of that register subset up by M/k.
type HLL struct {
	cfg  WindowConfig
	regs *bitpack.Packed
	gc   *groupClock
	fam  *hashing.Family
	tickClock
}

// NewHLL returns a SHE HyperLogLog with m 5-bit registers.
func NewHLL(m int, cfg WindowConfig) (*HLL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: hll needs a positive register count, got %d", m)
	}
	return &HLL{
		cfg:  cfg,
		regs: bitpack.NewPacked(m, 5),
		gc:   newGroupClock(m, cfg.Tcycle(), cfg.N),
		fam:  hashing.NewFamily(2, cfg.Seed),
	}, nil
}

// Insert records key at the next count-based tick.
func (h *HLL) Insert(key uint64) { h.insert(key, h.advance(h.gc)) }

// InsertAt records key at explicit time t. Following §4.3: on a mark
// mismatch the (single-register) group is reset before the max-update,
// so the register restarts from this item's rank.
func (h *HLL) InsertAt(key uint64, t uint64) { h.insert(key, h.gc.at(t)) }

// InsertBatch records keys at consecutive count-based ticks, in slice
// order — the same state as calling Insert on each, the clock carried
// in locals and written back once.
func (h *HLL) InsertBatch(keys []uint64) {
	gc, now := h.gc, h.now
	for _, key := range keys {
		now = gc.next(now)
		h.insert(key, now)
	}
	h.tick, h.now = h.tick+uint64(len(keys)), now
}

func (h *HLL) insert(key uint64, now clockTime) {
	i := h.fam.Index(0, key, h.regs.Len())
	r := sketch.Rank32(uint32(h.fam.Hash(1, key)))
	if h.gc.stale(i, now) || r > h.regs.Get(i) {
		h.regs.Set(i, r)
	}
}

// EstimateCardinality estimates the number of distinct keys within the
// last N items.
func (h *HLL) EstimateCardinality() float64 { return h.estimate(h.now) }

// EstimateCardinalityAt estimates window cardinality at time t using
// only registers with legal age: Ĉ = α_k·k·M / Σ 2^{−ℓ_j} (the paper's
// c·k·(Σ2^{−ℓ_j})⁻¹·M), including the standard small-range correction
// applied to the sampled registers before scaling.
func (h *HLL) EstimateCardinalityAt(t uint64) float64 { return h.estimate(h.gc.at(t)) }

func (h *HLL) estimate(now clockTime) float64 {
	floor := h.cfg.legalFloor()
	var legal sketch.RankHist
	k := 0
	for i, m := 0, h.regs.Len(); i < m; i++ {
		if h.gc.stale(i, now) {
			h.regs.Set(i, 0)
		}
		if h.gc.legalTwoSided(i, now, floor) {
			legal[h.regs.Get(i)]++
			k++
		}
	}
	if k == 0 {
		return 0
	}
	return legal.Estimate() * float64(h.regs.Len()) / float64(k)
}

// MemoryBits returns payload memory: 5-bit registers plus 1 mark bit
// per register.
func (h *HLL) MemoryBits() int { return h.regs.MemoryBits() + h.gc.memoryBits() }
