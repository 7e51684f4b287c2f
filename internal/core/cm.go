package core

import (
	"fmt"

	"she/internal/bitpack"
	"she/internal/hashing"
)

// CM is SHE-CM (§4.4): a Count-Min sketch over a sliding window.
// Counters are grouped w per group with a 1-bit mark; queries take the
// minimum over the hashed counters whose age is ≥ N, preserving the
// Count-Min "never underestimates" property for in-window items (up to
// the on-demand cleaning slack).
type CM struct {
	cfg      WindowConfig
	counters *bitpack.Packed
	gc       *groupClock
	fam      *hashing.Family
	grp      grouping
	tickClock
}

// NewCM returns a SHE Count-Min sketch with n counters of the given bit
// width in groups of w, using k hash functions.
func NewCM(n, w, k int, width uint, cfg WindowConfig) (*CM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || w <= 0 || w > n {
		return nil, fmt.Errorf("core: invalid count-min geometry n=%d w=%d", n, w)
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: count-min needs at least one hash function, got %d", k)
	}
	if width == 0 || 64%width != 0 {
		return nil, fmt.Errorf("core: count-min counter width must divide 64, got %d", width)
	}
	grp := newGrouping(n, w)
	return &CM{
		cfg:      cfg,
		counters: bitpack.NewPacked(n, width),
		gc:       newGroupClock(grp.count(), cfg.Tcycle(), cfg.N),
		fam:      hashing.NewFamily(k, cfg.Seed),
		grp:      grp,
	}, nil
}

// reset zeroes group gid — the cleaning half of Algorithm 1's
// CheckGroup, kept out of line so the mark check inlines into the
// per-location loops.
func (c *CM) reset(gid int) { c.counters.ResetRange(c.grp.bounds(gid)) }

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
// the time of the last: one location loop over locals, as BF.insert.
// The increment is bitpack's IncSatInWord: the width divides 64, so no
// counter straddles two words.
func (c *CM) insert(now clockTime, keys ...uint64) clockTime {
	words, state, odd, grp, gc := c.counters.Words(), c.gc.state, c.fam.Multipliers(), c.grp, c.gc
	n, width, max := uint64(c.counters.Len()), uint64(c.counters.Width()), c.counters.Max()
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
			w, off := j*width>>6, j*width&63
			if word := words[w]; word>>off&max != max {
				words[w] = word + 1<<off
			}
		}
	}
	return now
}

// EstimateFrequency estimates key's frequency within the last N items.
func (c *CM) EstimateFrequency(key uint64) uint64 { return c.estimate(key, c.now) }

// EstimateFrequencyAt estimates key's window frequency at time t: the
// minimum over the hashed counters with age ≥ N. If every hashed
// counter is young (probability (N/Tcycle)^k, ~4·10⁻³ at the α=1, k=8
// defaults), the minimum over all hashed counters is returned instead —
// the only information available.
func (c *CM) EstimateFrequencyAt(key uint64, t uint64) uint64 { return c.estimate(key, c.gc.at(t)) }

func (c *CM) estimate(key uint64, now clockTime) uint64 {
	words, state, grp, T, N := c.counters.Words(), c.gc.state, c.grp, c.gc.T, c.gc.N
	n, width, max := uint64(c.counters.Len()), uint64(c.counters.Width()), c.counters.Max()
	minMature, minAll, base, ph := ^uint64(0), ^uint64(0), hashing.Mix64(key), now.phase()
	for _, a := range c.fam.Multipliers() {
		j := hashing.Locate(base, a, n)
		gid := grp.of(int(j))
		s := state[gid]
		if staleWord(s, ph) {
			s ^= markBit
			state[gid] = s
			c.reset(gid)
		}
		v := words[j*width>>6] >> (j * width & 63) & max
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
func (c *CM) Counter(i int) uint64 { return c.counters.Get(i) }

// K returns the number of hash functions.
func (c *CM) K() int { return c.fam.K() }

// Config returns the window configuration.
func (c *CM) Config() WindowConfig { return c.cfg }

// MemoryBits returns payload memory: counters plus group marks.
func (c *CM) MemoryBits() int { return c.counters.MemoryBits() + c.gc.memoryBits() }
