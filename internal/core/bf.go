package core

import (
	"fmt"

	"she/internal/hashing"
)

// BF is SHE-BF (§4.2): a Bloom filter over a sliding window. Bits are
// grouped w per group with a 1-bit time mark each; insertion lazily
// cleans the touched groups; queries ignore young bits (age < N) so the
// structure keeps the Bloom filter's one-sided error — it never reports
// false for a key inserted within the window (up to the on-demand
// cleaning slack of §5.1).
//
// A group is stored as its clock word followed by its ⌈w/64⌉ bit words,
// so everything one location touches is adjacent: at the default
// w = 64 a group is 16 bytes, inside one cache line (PAPER.md §1,
// constraint 2).
type BF struct {
	cfg  WindowConfig
	data []uint64 // per group: clock word, then the group's bit words
	m    int
	gc   *groupClock // over data, stride 1+⌈w/64⌉
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
	stride := 1 + (w+63)/64
	data := make([]uint64, grp.count()*stride)
	return &BF{
		cfg:  cfg,
		data: data,
		m:    m,
		gc:   clockIn(data, stride, cfg.Tcycle(), cfg.N),
		fam:  hashing.NewFamily(k, cfg.Seed),
		grp:  grp,
	}, nil
}

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
// returns the time of the last. The served geometry, w = 64, has a loop
// of its own whose addressing is constant.
func (f *BF) insert(now clockTime, keys ...uint64) clockTime {
	if f.grp.w == 64 {
		return f.insert64(now, keys)
	}
	return f.insertAny(now, keys)
}

// insert64 is insertAny at w = 64: bit j lives in group j/64, whose
// two words — clock, then bits — sit at 2·(j/64). What a location reads
// besides those sits in locals: its stores may alias the structure's
// fields, which would otherwise be reloaded for every location.
func (f *BF) insert64(now clockTime, keys []uint64) clockTime {
	data, odd, m, gc := f.data, f.fam.Multipliers(), uint64(f.m), f.gc
	for ki, key := range keys {
		if ki > 0 {
			now = gc.next(now)
		}
		base, ph := hashing.Mix64(key), now.phase()
		for _, a := range odd {
			j := hashing.Locate(base, a, m)
			g := data[j>>6<<1 : j>>6<<1+2 : j>>6<<1+2]
			if s := g[0]; staleWord(s, ph) {
				g[0], g[1] = s^markBit, 0
			}
			g[1] |= 1 << (j & 63)
		}
	}
	return now
}

// insertAny is the location loop for any w, the reference insert64 is
// held to: bit j is bit j − gid·w of group gid's bit words.
func (f *BF) insertAny(now clockTime, keys []uint64) clockTime {
	data, odd, m, grp, gc, stride := f.data, f.fam.Multipliers(), uint64(f.m), f.grp, f.gc, f.gc.stride
	for ki, key := range keys {
		if ki > 0 {
			now = gc.next(now)
		}
		base, ph := hashing.Mix64(key), now.phase()
		for _, a := range odd {
			j := int(hashing.Locate(base, a, m))
			gid := grp.of(j)
			off := j - gid*grp.w
			g := data[gid*stride : (gid+1)*stride]
			if s := g[0]; staleWord(s, ph) {
				g[0] = s ^ markBit
				clear(g[1:])
			}
			g[1+off>>6] |= 1 << (off & 63)
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

// query picks the loop as insert does: the general one costs the
// served geometry a third more a query.
func (f *BF) query(key uint64, now clockTime, allCells bool) bool {
	if f.grp.w == 64 {
		return f.query64(key, now, allCells)
	}
	return f.queryAny(key, now, allCells)
}

// query64 is queryAny at w = 64, addressed as insert64.
func (f *BF) query64(key uint64, now clockTime, allCells bool) bool {
	data, m, T, N := f.data, uint64(f.m), f.gc.T, f.gc.N
	base, ph := hashing.Mix64(key), now.phase()
	for _, a := range f.fam.Multipliers() {
		j := hashing.Locate(base, a, m)
		g := data[j>>6<<1 : j>>6<<1+2 : j>>6<<1+2]
		if s := g[0]; staleWord(s, ph) {
			g[0], g[1] = s^markBit, 0
		}
		if g[1]&(1<<(j&63)) == 0 && (allCells || ageOf(g[0], now, T) >= N) {
			return false
		}
	}
	return true
}

// queryAny is the query loop for any w, the reference query64 is held to.
func (f *BF) queryAny(key uint64, now clockTime, allCells bool) bool {
	data, grp, stride := f.data, f.grp, f.gc.stride
	m, T, N := uint64(f.m), f.gc.T, f.gc.N
	base, ph := hashing.Mix64(key), now.phase()
	for _, a := range f.fam.Multipliers() {
		j := int(hashing.Locate(base, a, m))
		gid := grp.of(j)
		off := j - gid*grp.w
		g := data[gid*stride : (gid+1)*stride]
		s := g[0]
		if staleWord(s, ph) {
			s ^= markBit
			g[0] = s
			clear(g[1:])
		}
		// Only a mature cell holding 0 is evidence of absence; a young
		// one is ignored, which preserves the one-sided error. The bit
		// is tested first: it is set for every location of a present
		// key, so that branch predicts, while a group's age does not.
		if g[1+off>>6]&(1<<(off&63)) == 0 && (allCells || ageOf(s, now, T) >= N) {
			return false
		}
	}
	return true
}

// MemoryBits returns the structure's payload memory: the bit array plus
// one mark bit per group.
func (f *BF) MemoryBits() int { return f.m + f.gc.memoryBits() }
