package core

import (
	"fmt"

	"she/internal/bitpack"
	"she/internal/hashing"
)

// mhEmpty is the "no value" sentinel for a SHE-MH signature slot.
// Signatures are 24-bit, so the all-ones 24-bit pattern can only be
// produced by an actual hash with probability 2⁻²⁴ per slot; treating
// it as empty costs nothing measurable and lets a cleaned slot be
// distinguished from a real minimum. (The paper resets cells "to zero",
// which for a min-update would absorb every later hash; its released
// implementation necessarily resets to a maximal value, which is what
// we do.)
const mhEmpty = 1<<24 - 1

// MH is SHE-MH (§4.5): MinHash similarity between two sliding-window
// streams. It holds a pair of signature arrays C1 and C2, one per
// stream, sharing one clock, one hash family and one set of group
// offsets (each signature slot is its own group, w = 1). Insertions go
// to stream A or B; Similarity compares the slots whose age is legal.
type MH struct {
	cfg    WindowConfig
	c1, c2 *bitpack.Packed
	g1, g2 *groupClock
	fam    *hashing.Family
	tickClock
}

// NewMH returns a SHE MinHash pair with m signature slots per stream.
func NewMH(m int, cfg WindowConfig) (*MH, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: minhash needs a positive signature size, got %d", m)
	}
	mh := &MH{
		cfg: cfg,
		c1:  bitpack.NewPacked(m, 24),
		c2:  bitpack.NewPacked(m, 24),
		g1:  newGroupClock(m, cfg.Tcycle(), cfg.N),
		g2:  newGroupClock(m, cfg.Tcycle(), cfg.N),
		fam: hashing.NewFamily(m, cfg.Seed),
	}
	for i := 0; i < m; i++ {
		mh.c1.Set(i, mhEmpty)
		mh.c2.Set(i, mhEmpty)
	}
	return mh, nil
}

// InsertA records key on stream A at the next shared tick.
func (mh *MH) InsertA(key uint64) { mh.insert(mh.c1, mh.g1, key, mh.advance(mh.g1)) }

// InsertB records key on stream B at the next shared tick.
func (mh *MH) InsertB(key uint64) { mh.insert(mh.c2, mh.g2, key, mh.advance(mh.g2)) }

// InsertAAt and InsertBAt record keys at explicit times.
func (mh *MH) InsertAAt(key uint64, t uint64) { mh.insert(mh.c1, mh.g1, key, mh.g1.at(t)) }

// InsertBAt records key on stream B at explicit time t.
func (mh *MH) InsertBAt(key uint64, t uint64) { mh.insert(mh.c2, mh.g2, key, mh.g2.at(t)) }

func (mh *MH) insert(c *bitpack.Packed, gc *groupClock, key uint64, now clockTime) {
	for i := 0; i < c.Len(); i++ {
		h := mh.fam.Hash(i, key) & mhEmpty
		if h == mhEmpty {
			h-- // reserve the sentinel
		}
		if gc.stale(i, now) || h < c.Get(i) {
			c.Set(i, h)
		}
	}
}

// Similarity estimates the Jaccard index of the two streams' windows at
// the current shared tick.
func (mh *MH) Similarity() float64 { return mh.similarity(mh.now) }

// SimilarityAt estimates the Jaccard index at time t: among slots with
// legal age (the two arrays share offsets, so legality is common), the
// fraction whose signatures agree. Slots empty on both sides carry no
// evidence and are excluded; a slot empty on exactly one side counts as
// a disagreement.
func (mh *MH) SimilarityAt(t uint64) float64 { return mh.similarity(mh.g1.at(t)) }

func (mh *MH) similarity(now clockTime) float64 {
	floor := mh.cfg.legalFloor()
	k, eq := 0, 0
	for i := 0; i < mh.c1.Len(); i++ {
		if mh.g1.stale(i, now) {
			mh.c1.Set(i, mhEmpty)
		}
		if mh.g2.stale(i, now) {
			mh.c2.Set(i, mhEmpty)
		}
		if !mh.g1.legalTwoSided(i, now, floor) {
			continue
		}
		v1, v2 := mh.c1.Get(i), mh.c2.Get(i)
		if v1 == mhEmpty && v2 == mhEmpty {
			continue
		}
		k++
		if v1 == v2 {
			eq++
		}
	}
	if k == 0 {
		return 0
	}
	return float64(eq) / float64(k)
}

// MemoryBits returns payload memory for both arrays plus marks.
func (mh *MH) MemoryBits() int {
	return mh.c1.MemoryBits() + mh.c2.MemoryBits() + mh.g1.memoryBits() + mh.g2.memoryBits()
}
