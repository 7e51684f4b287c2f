package core

import "math/bits"

// groupClock is the hardware version's cleaning machinery (§3.3,
// Algorithm 1): one time-mark bit and one fixed time offset per group.
//
// The paper writes the offset as d_gid = −⌊Tcycle·gid/G⌋, the group's
// current mark as ⌊(t+d_gid)/Tcycle⌋ mod 2 and its age as (t+d_gid)
// mod Tcycle. Both follow from one split of t that does not depend on
// the group: with q = ⌊t/Tcycle⌋, r = t mod Tcycle and off = −d_gid
// (0 ≤ off < Tcycle),
//
//	r ≥ off:  ⌊(t−off)/Tcycle⌋ = q,    (t−off) mod Tcycle = r − off
//	r < off:  ⌊(t−off)/Tcycle⌋ = q−1,  (t−off) mod Tcycle = r − off + Tcycle
//
// so an operation divides once (clockTime), or not at all when it
// carries the split from the previous tick, and every group it touches
// costs a subtraction and a sign test. Only q's parity is used, in
// wrapping uint64 arithmetic, so q = 0 with r < off yields mark 1 — the
// value the positive-domain phase t + 2·Tcycle − off gives. The one-bit
// mark and its §5.1 aliasing are untouched: the identity is exact, so a
// group left alone for two cycles lands on the same mark as before.
type groupClock struct {
	// state[gid·stride] = ⌊Tcycle·gid/G⌋ | mark<<63: the group's fixed
	// offset and its stored time mark share a word (WindowConfig.Validate
	// keeps Tcycle below 2⁶³). stride is 1, or in SHE-BF a group's size
	// in words: there its clock word leads its bit words.
	state  []uint64
	stride int
	T      uint64
	N      uint64
}

const markBit = 1 << 63

// clockTime is a time t split against the cleaning cycle: q = ⌊t/T⌋,
// r = t mod T.
type clockTime struct {
	q, r uint64
}

// newGroupClock builds the clock for G groups. Marks are initialized to
// each group's mark at t = 0 so that an untouched, still-zero array is
// never spuriously "cleaned".
func newGroupClock(G int, T, N uint64) *groupClock {
	if G <= 0 {
		panic("core: group count must be positive")
	}
	return clockIn(make([]uint64, G), 1, T, N)
}

// clockIn builds the clock whose state words are every stride-th word
// of state, in place: the caller owns the words in between.
func clockIn(state []uint64, stride int, T, N uint64) *groupClock {
	c := &groupClock{state: state, stride: stride, T: T, N: N}
	for gid, G := 0, c.groups(); gid < G; gid++ {
		c.state[gid*stride] = T * uint64(gid) / uint64(G)
		c.setMark(gid, c.curMark(gid, clockTime{}))
	}
	return c
}

func (c *groupClock) groups() int { return len(c.state) / c.stride }

// word returns group gid's state word.
func (c *groupClock) word(gid int) uint64 { return c.state[gid*c.stride] }

// off returns the group's offset ⌊Tcycle·gid/G⌋.
func (c *groupClock) off(gid int) uint64 { return c.word(gid) &^ markBit }

// mark returns the group's stored time mark.
func (c *groupClock) mark(gid int) bool { return c.word(gid)&markBit != 0 }

// setMark overwrites the group's stored time mark (snapshot restore).
func (c *groupClock) setMark(gid int, m bool) {
	c.state[gid*c.stride] &^= markBit
	if m {
		c.state[gid*c.stride] |= markBit
	}
}

// at splits t — the one division an explicit-time operation pays.
func (c *groupClock) at(t uint64) clockTime {
	q := t / c.T
	return clockTime{q: q, r: t - q*c.T}
}

// next is at(t+1) given now = at(t), without dividing: the count-based
// Insert path carries its clockTime from tick to tick.
func (c *groupClock) next(now clockTime) clockTime {
	now.r++
	if now.r == c.T {
		now.q++
		now.r = 0
	}
	return now
}

// curMark is ⌊(t+d_gid)/Tcycle⌋ mod 2 — the mark a freshly cleaned
// group would carry at time now.
func (c *groupClock) curMark(gid int, now clockTime) bool {
	return (now.q-borrow(now.r, c.off(gid)))&1 == 1
}

// borrow is [r < off] for r, off < 2⁶³, computed without a branch:
// which side of its offset a group sits on is as good as random from
// one hashed location to the next, so a compare-and-jump here would be
// mispredicted about every other time.
func borrow(r, off uint64) uint64 { return (r - off) >> 63 }

// age returns the time since the group's latest (virtual) cleaning:
// (t + d_gid) mod Tcycle. Ages lie in [0, Tcycle).
func (c *groupClock) age(gid int, now clockTime) uint64 { return ageOf(c.word(gid), now, c.T) }

// ageOf is age for a loop that holds the state word and Tcycle.
func ageOf(s uint64, now clockTime, T uint64) uint64 {
	off := s &^ markBit
	return now.r - off + T&-borrow(now.r, off)
}

// stale performs the decision half of on-demand cleaning (Algorithm 1,
// CheckGroup): if the stored mark differs from the current one, at
// least one virtual cleaning has passed since the group was last
// touched; the mark is updated and the caller must reset the group's
// cells before using them.
//
// Note the deliberate 1-bit aliasing the paper analyzes in §5.1: a
// group untouched for two full cycles lands back on the same mark and
// keeps stale cells. Eq. 1 bounds how often that happens.
func (c *groupClock) stale(gid int, now clockTime) bool {
	s := c.word(gid)
	if !staleWord(s, now.phase()) {
		return false
	}
	c.state[gid*c.stride] = s ^ markBit
	return true
}

// staleWord is stale's test on state word s, for a loop that holds the
// state slice and stores s ^ markBit itself. In r − s the top bit is
// [r < off] flipped by the stored mark (subtracting mark·2⁶³ flips it),
// and the current mark's parity is q's flipped by [r < off]: with q's
// parity added at the top (phase, computed once per time) the top bit
// says whether stored and current mark differ.
func staleWord(s, phase uint64) bool { return int64(phase-s) < 0 }

func (t clockTime) phase() uint64 { return t.r + t.q<<63 }

// mature reports whether the group's cells are old enough for a
// one-sided query: age ≥ N (perfect or aged cells; Algorithm 1,
// CheckMature).
func (c *groupClock) mature(gid int, now clockTime) bool {
	return c.age(gid, now) >= c.N
}

// legalTwoSided reports whether the group's age lies in [floor, Tcycle)
// — the age window the two-sided estimators accept.
func (c *groupClock) legalTwoSided(gid int, now clockTime, floor uint64) bool {
	return c.age(gid, now) >= floor
}

// memoryBits returns the bookkeeping overhead: one mark bit per group.
func (c *groupClock) memoryBits() int { return c.groups() }

// ResidentBytes is what a structure holds allocated — its cells and
// the clock's word a group — where MemoryBits reports the paper's
// payload, a mark bit a group (Table 2).
func (f *BF) ResidentBytes() int  { return 8 * len(f.data) }
func (c *CM) ResidentBytes() int  { return 4*cap(c.cells) + 8*len(c.gc.state) }
func (h *HLL) ResidentBytes() int { return 8 * (len(h.regs.Words()) + len(h.gc.state)) }

// tickClock is a structure's count-based time: the tick of its latest
// Insert and that tick's clockTime, carried so Insert and the
// current-tick queries never divide.
type tickClock struct {
	tick uint64
	now  clockTime
}

// advance moves to the next tick and returns its clockTime.
func (k *tickClock) advance(gc *groupClock) clockTime {
	k.tick++
	k.now = gc.next(k.now)
	return k.now
}

// setTick jumps to an arbitrary tick (snapshot restore).
func (k *tickClock) setTick(gc *groupClock, tick uint64) {
	k.tick = tick
	k.now = gc.at(tick)
}

// grouping maps the cells of an array onto cleaning groups of w cells
// (the last group of an uneven geometry is short).
type grouping struct {
	cells int
	w     int
	shift int // log2 w when w is a power of two (the default 64), else −1
}

func newGrouping(cells, w int) grouping {
	g := grouping{cells: cells, w: w, shift: -1}
	if w&(w-1) == 0 {
		g.shift = bits.TrailingZeros(uint(w))
	}
	return g
}

// count returns the number of groups.
func (g grouping) count() int { return (g.cells + g.w - 1) / g.w }

// of returns the group holding cell j.
func (g grouping) of(j int) int {
	if g.shift >= 0 {
		return j >> (uint(g.shift) & 63)
	}
	return j / g.w
}

// bounds returns group gid's cell range [lo, hi).
func (g grouping) bounds(gid int) (lo, hi int) {
	lo = gid * g.w
	hi = lo + g.w
	if hi > g.cells {
		hi = g.cells
	}
	return lo, hi
}
