package core

import (
	"fmt"

	"she/internal/bitpack"
	"she/internal/hashing"
)

// BF is SHE-BF (§4.2): a Bloom filter over a sliding window. Bits are
// grouped w per group with a 1-bit time mark each; insertion lazily
// cleans the touched groups; queries ignore young bits (age < N) so the
// structure keeps the Bloom filter's one-sided error — it never reports
// false for a key inserted within the window (up to the on-demand
// cleaning slack of §5.1).
type BF struct {
	cfg  WindowConfig
	bits *bitpack.BitArray
	gc   *groupClock
	fam  *hashing.Family
	grp  grouping
	tickClock
}

// NewBF returns a SHE Bloom filter with m bits in groups of w, k hash
// functions and the given window configuration.
func NewBF(m, w, k int, cfg WindowConfig) (*BF, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m <= 0 || w <= 0 || w > m {
		return nil, fmt.Errorf("core: invalid bloom geometry m=%d w=%d", m, w)
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: bloom needs at least one hash function, got %d", k)
	}
	grp := newGrouping(m, w)
	return &BF{
		cfg:  cfg,
		bits: bitpack.NewBitArray(m),
		gc:   newGroupClock(grp.count(), cfg.Tcycle(), cfg.N),
		fam:  hashing.NewFamily(k, cfg.Seed),
		grp:  grp,
	}, nil
}

// reset zeroes group gid — the cleaning half of Algorithm 1's
// CheckGroup, kept out of line so the mark check inlines into the
// per-location loops.
func (f *BF) reset(gid int) { f.bits.ResetRange(f.grp.bounds(gid)) }

// Insert records key at the next count-based tick.
func (f *BF) Insert(key uint64) { f.insert(f.advance(f.gc), key) }

// InsertAt records key at explicit time t.
func (f *BF) InsertAt(key uint64, t uint64) { f.insert(f.gc.at(t), key) }

// InsertBatch records keys at consecutive count-based ticks, in slice
// order — the same state as calling Insert on each.
func (f *BF) InsertBatch(keys []uint64) {
	if len(keys) > 0 {
		f.tick += uint64(len(keys))
		f.now = f.insert(f.gc.next(f.now), keys...)
	}
}

// insert records keys at consecutive times, the first at now, and
// returns the time of the last: the one location loop behind Insert,
// InsertAt and InsertBatch. What a location reads besides its own two
// words sits in locals: its stores may alias the structure's fields,
// which would otherwise be reloaded for every location.
func (f *BF) insert(now clockTime, keys ...uint64) clockTime {
	words, state, odd := f.bits.Words(), f.gc.state, f.fam.Multipliers()
	m, grp, gc := uint64(f.bits.Len()), f.grp, f.gc
	for ki, key := range keys {
		if ki > 0 {
			now = gc.next(now)
		}
		base, ph := hashing.Mix64(key), now.phase()
		for _, a := range odd {
			j := hashing.Locate(base, a, m)
			gid := grp.of(int(j))
			if s := state[gid]; staleWord(s, ph) {
				state[gid] = s ^ markBit
				f.reset(gid)
			}
			words[j>>6] |= 1 << (j & 63)
		}
	}
	return now
}

// Query reports whether key may have appeared within the last N items.
func (f *BF) Query(key uint64) bool { return f.query(key, f.now, false) }

// QueryAt reports whether key may have appeared in the window ending at
// time t. Young bits are ignored; if every hashed bit is young the
// filter has no evidence either way and conservatively answers true,
// preserving one-sidedness.
func (f *BF) QueryAt(key uint64, t uint64) bool { return f.query(key, f.gc.at(t), false) }

// QueryAllCells answers the membership query without age-sensitive
// selection: young cells are treated like any other. This deliberately
// breaks the one-sided error guarantee (a recently cleaned group can
// hide an in-window item) and exists only for the selection ablation
// benchmark, which quantifies how many false negatives the technique
// prevents.
func (f *BF) QueryAllCells(key uint64) bool { return f.query(key, f.now, true) }

func (f *BF) query(key uint64, now clockTime, allCells bool) bool {
	words, state, grp := f.bits.Words(), f.gc.state, f.grp
	m, T, N := uint64(f.bits.Len()), f.gc.T, f.gc.N
	base, ph := hashing.Mix64(key), now.phase()
	for _, a := range f.fam.Multipliers() {
		j := hashing.Locate(base, a, m)
		gid := grp.of(int(j))
		s := state[gid]
		if staleWord(s, ph) {
			s ^= markBit
			state[gid] = s
			f.reset(gid)
		}
		// Only a mature cell holding 0 is evidence of absence; a young
		// one is ignored, which preserves the one-sided error. The bit
		// is tested first: it is set for every location of a present
		// key, so that branch predicts, while a group's age does not.
		if words[j>>6]&(1<<(j&63)) == 0 && (allCells || ageOf(s, now, T) >= N) {
			return false
		}
	}
	return true
}

// K returns the number of hash functions.
func (f *BF) K() int { return f.fam.K() }

// Config returns the window configuration.
func (f *BF) Config() WindowConfig { return f.cfg }

// MemoryBits returns the structure's payload memory: the bit array plus
// one mark bit per group.
func (f *BF) MemoryBits() int { return f.bits.MemoryBits() + f.gc.memoryBits() }
