package core

import (
	"fmt"

	"she/internal/bitpack"
	"she/internal/hashing"
)

// CU is SHE-CU: the conservative-update (CU) sketch of Estan & Varghese
// lifted to sliding windows — an extension beyond the paper's five
// instantiations. Conservative update increments only the hashed
// counters currently equal to the minimum, which cannot be expressed as
// the CSM's per-cell F(x, y) (the update depends on all K cells
// jointly), so CU gets a dedicated implementation rather than the
// generic engine.
//
// The sliding-window subtlety: the classic "never underestimates"
// argument needs every hashed counter to have absorbed the full
// increment history, but a young (recently cleaned) counter has not.
// SHE-CU therefore computes the update minimum over mature counters
// only and always bumps young counters (they are catching up; the
// over-increment is ignored by queries until the counter matures).
//
// Unlike SHE-CM, the one-sided guarantee is *approximate*: when two of
// a key's counters were cleaned at very different times, the older one
// can occasionally be starved of an increment the window still needs
// (the update minimum sat on a counter that later left the mature set).
// The tests bound this effect empirically at well under a percent; in
// exchange CU's over-estimation error is substantially below CM's —
// the classic CU trade, now with a second, sliding-window-specific
// epsilon. The extension ablation quantifies both sides.
type CU struct {
	cfg      WindowConfig
	counters *bitpack.Packed
	gc       *groupClock
	fam      *hashing.Family
	grp      grouping
	tickClock

	idxBuf []int
	ageBuf []bool
}

// NewCU returns a SHE conservative-update sketch with n counters of the
// given bit width in groups of w, using k hash functions.
func NewCU(n, w, k int, width uint, cfg WindowConfig) (*CU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || w <= 0 || w > n {
		return nil, fmt.Errorf("core: invalid cu geometry n=%d w=%d", n, w)
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: cu needs at least one hash function, got %d", k)
	}
	if width == 0 || 64%width != 0 {
		return nil, fmt.Errorf("core: cu counter width must divide 64, got %d", width)
	}
	grp := newGrouping(n, w)
	return &CU{
		cfg:      cfg,
		counters: bitpack.NewPacked(n, width),
		gc:       newGroupClock(grp.count(), cfg.Tcycle(), cfg.N),
		fam:      hashing.NewFamily(k, cfg.Seed),
		grp:      grp,
		idxBuf:   make([]int, k),
		ageBuf:   make([]bool, k),
	}, nil
}

// reset zeroes group gid — the cleaning half of Algorithm 1's
// CheckGroup, kept out of line so the mark check inlines into the
// per-location loops.
func (c *CU) reset(gid int) { c.counters.ResetRange(c.grp.bounds(gid)) }

// Insert adds one occurrence of key at the next count-based tick.
func (c *CU) Insert(key uint64) { c.insert(key, c.advance(c.gc)) }

// InsertAt adds one occurrence of key at explicit time t.
func (c *CU) InsertAt(key uint64, t uint64) { c.insert(key, c.gc.at(t)) }

func (c *CU) insert(key uint64, now clockTime) {
	n := c.counters.Len()
	k := c.fam.K()
	// Pass 1: locate, clean and classify every hashed counter.
	minMature := ^uint64(0)
	matureSeen := false
	for i := 0; i < k; i++ {
		j := c.fam.Index(i, key, n)
		gid := c.grp.of(j)
		if c.gc.stale(gid, now) {
			c.reset(gid)
		}
		mature := c.gc.mature(gid, now)
		c.idxBuf[i] = j
		c.ageBuf[i] = mature
		if mature {
			matureSeen = true
			if v := c.counters.Get(j); v < minMature {
				minMature = v
			}
		}
	}
	// Pass 2: conservative update among mature counters; young counters
	// always advance (they are rebuilding their window history).
	for i := 0; i < k; i++ {
		j := c.idxBuf[i]
		if !c.ageBuf[i] {
			c.counters.IncSatInWord(j)
			continue
		}
		if !matureSeen || c.counters.Get(j) == minMature {
			c.counters.IncSatInWord(j)
		}
	}
}

// EstimateFrequency estimates key's window frequency at the current
// tick (same query rule as SHE-CM).
func (c *CU) EstimateFrequency(key uint64) uint64 { return c.estimate(key, c.now) }

// EstimateFrequencyAt estimates key's window frequency at time t.
func (c *CU) EstimateFrequencyAt(key uint64, t uint64) uint64 { return c.estimate(key, c.gc.at(t)) }

func (c *CU) estimate(key uint64, now clockTime) uint64 {
	n := c.counters.Len()
	minMature := ^uint64(0)
	minAll := ^uint64(0)
	for i := 0; i < c.fam.K(); i++ {
		j := c.fam.Index(i, key, n)
		gid := c.grp.of(j)
		if c.gc.stale(gid, now) {
			c.reset(gid)
		}
		v := c.counters.Get(j)
		minAll = min(minAll, v)
		minMature = min(minMature, v|c.gc.youngMask(gid, now))
	}
	if minMature != ^uint64(0) {
		return minMature
	}
	return minAll
}

// Config returns the window configuration.
func (c *CU) Config() WindowConfig { return c.cfg }

// MemoryBits returns payload memory: counters plus group marks.
func (c *CU) MemoryBits() int { return c.counters.MemoryBits() + c.gc.memoryBits() }
