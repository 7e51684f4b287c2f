package core

import "math"

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
	counters
	idxBuf []int
	ageBuf []bool
}

// NewCU returns a SHE conservative-update sketch with n 32-bit
// counters in groups of w, using k hash functions.
func NewCU(n, w, k int, cfg WindowConfig) (*CU, error) {
	c, err := newCounters("cu", n, w, k, cfg)
	if err != nil {
		return nil, err
	}
	return &CU{counters: c, idxBuf: make([]int, k), ageBuf: make([]bool, k)}, nil
}

// Insert adds one occurrence of key at the next count-based tick.
func (c *CU) Insert(key uint64) { c.insert(key, c.advance(c.gc)) }

// InsertAt adds one occurrence of key at explicit time t.
func (c *CU) InsertAt(key uint64, t uint64) { c.insert(key, c.gc.at(t)) }

func (c *CU) insert(key uint64, now clockTime) {
	// Pass 1: locate, clean and classify every hashed counter. With no
	// mature counter, minMature stays above every cell.
	minMature := ^uint64(0)
	for i := range c.idxBuf {
		j := c.fam.Index(i, key, len(c.cells))
		gid := c.grp.of(j)
		if c.gc.stale(gid, now) {
			c.reset(gid)
		}
		c.idxBuf[i], c.ageBuf[i] = j, c.gc.mature(gid, now)
		if c.ageBuf[i] {
			minMature = min(minMature, uint64(c.cells[j]))
		}
	}
	// Pass 2: conservative update among mature counters; young counters
	// always advance (they are rebuilding their window history).
	for i, j := range c.idxBuf {
		if v := c.cells[j]; v != math.MaxUint32 && (!c.ageBuf[i] || minMature == ^uint64(0) || uint64(v) == minMature) {
			c.cells[j] = v + 1
		}
	}
}
