package core

import (
	"fmt"
	"math"

	"she/internal/bitpack"
	"she/internal/hashing"
)

// BM is SHE-BM (§4.1): a linear-counting bitmap over a sliding window.
// Cardinality queries sample only groups whose age falls in the legal
// range [βN, Tcycle) and scale the zero-bit fraction of that sample to
// the whole array: Ĉ = −m·ln(u/(w·ℓ)) with u zero bits among ℓ legal
// groups.
type BM struct {
	cfg  WindowConfig
	bits *bitpack.BitArray
	gc   *groupClock
	fam  *hashing.Family
	grp  grouping
	tickClock
}

// NewBM returns a SHE bitmap with m bits in groups of w.
func NewBM(m, w int, cfg WindowConfig) (*BM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m <= 0 || w <= 0 || w > m {
		return nil, fmt.Errorf("core: invalid bitmap geometry m=%d w=%d", m, w)
	}
	grp := newGrouping(m, w)
	return &BM{
		cfg:  cfg,
		bits: bitpack.NewBitArray(m),
		gc:   newGroupClock(grp.count(), cfg.Tcycle(), cfg.N),
		fam:  hashing.NewFamily(1, cfg.Seed),
		grp:  grp,
	}, nil
}

// Insert records key at the next count-based tick.
func (b *BM) Insert(key uint64) { b.insert(key, b.advance(b.gc)) }

// InsertAt records key at explicit time t.
func (b *BM) InsertAt(key uint64, t uint64) { b.insert(key, b.gc.at(t)) }

func (b *BM) insert(key uint64, now clockTime) {
	j := b.fam.Index(0, key, b.bits.Len())
	if gid := b.grp.of(j); b.gc.stale(gid, now) {
		b.bits.ResetRange(b.grp.bounds(gid))
	}
	b.bits.Set(j)
}

// EstimateCardinality estimates the number of distinct keys within the
// last N items.
func (b *BM) EstimateCardinality() float64 { return b.estimate(b.now) }

// EstimateCardinalityAt estimates window cardinality at time t. Groups
// outside the legal age range are skipped; stale groups (missed
// cleanings) are lazily cleaned as they are inspected, exactly as an
// insertion would.
func (b *BM) EstimateCardinalityAt(t uint64) float64 { return b.estimate(b.gc.at(t)) }

func (b *BM) estimate(now clockTime) float64 {
	floor := b.cfg.legalFloor()
	m := b.bits.Len()
	zeros, sampled, legal := 0, 0, 0
	for gid := 0; gid < b.gc.groups(); gid++ {
		lo, hi := b.grp.bounds(gid)
		if b.gc.stale(gid, now) {
			b.bits.ResetRange(lo, hi)
		}
		if !b.gc.legalTwoSided(gid, now, floor) {
			continue
		}
		legal++
		sampled += hi - lo
		zeros += b.bits.ZerosRange(lo, hi)
	}
	if legal == 0 || sampled == 0 {
		return 0
	}
	u := float64(zeros)
	if zeros == 0 {
		u = 1 // saturated sample: report the model's largest estimate
	}
	return -float64(m) * math.Log(u/float64(sampled))
}

// Bit reports the raw state of bit i without cleaning or age filtering.
// It exists for state inspection — notably the hardware-datapath
// equivalence tests in internal/fpga.
func (b *BM) Bit(i int) bool { return b.bits.Get(i) }

// Config returns the window configuration.
func (b *BM) Config() WindowConfig { return b.cfg }

// MemoryBits returns payload memory: bit array plus group marks.
func (b *BM) MemoryBits() int { return b.bits.MemoryBits() + b.gc.memoryBits() }
