package core

import (
	"fmt"
	"math"

	"she/internal/hashing"
)

// CM is SHE-CM (§4.4): a Count-Min sketch over a sliding window.
// Counters are grouped w per group with a 1-bit mark; queries take the
// minimum over the hashed counters whose age is ≥ N, preserving the
// Count-Min "never underestimates" property for in-window items (up to
// the on-demand cleaning slack).
type CM struct{ counters }

// counters is what SHE-CM and SHE-CU share: 32-bit cells that saturate
// at 2³²−1, their group clock, and the Count-Min query.
type counters struct {
	cfg   WindowConfig
	cells []uint32
	gc    *groupClock
	fam   *hashing.Family
	grp   grouping
	tickClock
}

// counterBits is the width of a SHE-CM or SHE-CU counter.
const counterBits = 32

// NewCM returns a SHE Count-Min sketch with n counters in groups of w,
// using k hash functions. width must be 32: it is what the snapshot
// format records, and the only width the cells store.
func NewCM(n, w, k int, width uint, cfg WindowConfig) (*CM, error) {
	if width != counterBits {
		return nil, fmt.Errorf("core: count-min counters are %d bits wide, got %d", counterBits, width)
	}
	c, err := newCounters("count-min", n, w, k, cfg)
	if err != nil {
		return nil, err
	}
	return &CM{c}, nil
}

func newCounters(what string, n, w, k int, cfg WindowConfig) (counters, error) {
	if err := cfg.Validate(); err != nil {
		return counters{}, err
	}
	if n <= 0 || w <= 0 || w > n {
		return counters{}, fmt.Errorf("core: invalid %s geometry n=%d w=%d", what, n, w)
	}
	if k <= 0 {
		return counters{}, fmt.Errorf("core: %s needs at least one hash function, got %d", what, k)
	}
	grp := newGrouping(n, w)
	return counters{
		cfg:   cfg,
		cells: make([]uint32, n, n+2+n%2), // the size of the format's cell words (cells32)
		gc:    newGroupClock(grp.count(), cfg.Tcycle(), cfg.N),
		fam:   hashing.NewFamily(k, cfg.Seed),
		grp:   grp,
	}, nil
}

// reset zeroes group gid — the cleaning half of Algorithm 1's
// CheckGroup, kept out of line so the mark check inlines into the
// per-location loops.
func (c *counters) reset(gid int) { clear(c.cells[gid*c.grp.w : min((gid+1)*c.grp.w, len(c.cells))]) }

// Insert adds one occurrence of key at the next count-based tick.
func (c *CM) Insert(key uint64) { c.insert(c.advance(c.gc), key) }

// InsertAt adds one occurrence of key at explicit time t.
func (c *CM) InsertAt(key uint64, t uint64) { c.insert(c.gc.at(t), key) }

// InsertBatch adds one occurrence of each key at consecutive
// count-based ticks, in slice order — the same state as calling Insert
// on each.
func (c *CM) InsertBatch(keys []uint64) {
	if len(keys) > 0 {
		c.tick += uint64(len(keys))
		c.now = c.insert(c.gc.next(c.now), keys...)
	}
}

// insert adds keys at consecutive times, the first at now, and returns
// the time of the last, choosing the loop as BF.insert does.
func (c *CM) insert(now clockTime, keys ...uint64) clockTime {
	if c.grp.w == 64 {
		return c.insert64(now, keys)
	}
	return c.insertAny(now, keys)
}

// insert64 is insertAny at w = 64: counter j is in group j/64. What a
// location reads besides its two words sits in locals, as in
// BF.insert64.
func (c *CM) insert64(now clockTime, keys []uint64) clockTime {
	cells, state, odd, gc, n := c.cells, c.gc.state, c.fam.Multipliers(), c.gc, uint64(len(c.cells))
	for ki, key := range keys {
		if ki > 0 {
			now = gc.next(now)
		}
		base, ph := hashing.Mix64(key), now.phase()
		for _, a := range odd {
			j := hashing.Locate(base, a, n)
			if s := state[j>>6]; staleWord(s, ph) {
				state[j>>6] = s ^ markBit
				c.reset(int(j >> 6))
			}
			if v := cells[j]; v != math.MaxUint32 {
				cells[j] = v + 1
			}
		}
	}
	return now
}

// insertAny is the location loop for any w, the reference insert64 is
// held to.
func (c *CM) insertAny(now clockTime, keys []uint64) clockTime {
	cells, state, odd, grp, gc, n := c.cells, c.gc.state, c.fam.Multipliers(), c.grp, c.gc, uint64(len(c.cells))
	for ki, key := range keys {
		if ki > 0 {
			now = gc.next(now)
		}
		base, ph := hashing.Mix64(key), now.phase()
		for _, a := range odd {
			j := hashing.Locate(base, a, n)
			gid := grp.of(int(j))
			if s := state[gid]; staleWord(s, ph) {
				state[gid] = s ^ markBit
				c.reset(gid)
			}
			if v := cells[j]; v != math.MaxUint32 {
				cells[j] = v + 1
			}
		}
	}
	return now
}

// EstimateFrequency estimates key's frequency within the last N items.
func (c *counters) EstimateFrequency(key uint64) uint64 { return c.estimate(key, c.now) }

// EstimateFrequencyAt estimates key's window frequency at time t: the
// minimum over the hashed counters with age ≥ N. If every hashed
// counter is young (probability (N/Tcycle)^k, ~4·10⁻³ at the α=1, k=8
// defaults), the minimum over all hashed counters is returned instead —
// the only information available.
func (c *counters) EstimateFrequencyAt(key, t uint64) uint64 { return c.estimate(key, c.gc.at(t)) }

func (c *counters) estimate(key uint64, now clockTime) uint64 {
	cells, state, grp, T, N := c.cells, c.gc.state, c.grp, c.gc.T, c.gc.N
	minMature, minAll, base, ph := ^uint64(0), ^uint64(0), hashing.Mix64(key), now.phase()
	for _, a := range c.fam.Multipliers() {
		j := hashing.Locate(base, a, uint64(len(cells)))
		gid := grp.of(int(j))
		s := state[gid]
		if staleWord(s, ph) {
			s ^= markBit
			state[gid] = s
			c.reset(gid)
		}
		v := uint64(cells[j])
		minAll = min(minAll, v)
		minMature = min(minMature, v|-borrow(ageOf(s, now, T), N))
	}
	if minMature != ^uint64(0) {
		return minMature
	}
	return minAll
}

// Counter reports the raw value of counter i without cleaning or age
// filtering — a state-inspection hook mirroring BM.Bit, used by the
// hardware-datapath equivalence tests.
func (c *counters) Counter(i int) uint64 { return uint64(c.cells[i]) }

// MemoryBits returns payload memory: counters plus group marks.
func (c *counters) MemoryBits() int { return counterBits*len(c.cells) + c.gc.memoryBits() }
