package core

import "math/bits"

// SketchStats is a read-only snapshot of a structure's sliding-window
// runtime state — the invisible machinery the paper's accuracy
// analysis runs on: where the virtual cleaning process sits in its
// Tcycle = (1+α)·N sweep and how the cells' ages distribute across the
// young / perfect / aged classes of the age-sensitive selection rule
// (§3.2).
//
// Taking stats never advances the structure: no group is check-cleaned
// and no state mutates, so the numbers describe the groups' *virtual*
// ages. A group untouched since its last virtual cleaning still holds
// stale cells until an insert or query lands on it — between cleanings
// the Filled count (and therefore the fill ratio) is approximate, per
// the paper's lazy-cleaning design.
type SketchStats struct {
	// N is the structure's window size in ticks.
	N uint64
	// Tcycle is the cleaning-cycle length round((1+α)·N).
	Tcycle uint64
	// Tick is the current count-based tick (items inserted so far via
	// Insert; explicit-timestamp streams advance it only as far as the
	// caller's clock did).
	Tick uint64
	// CyclePos is the cleaning sweep's position Tick mod Tcycle.
	CyclePos uint64
	// Groups is the number of cleaning groups.
	Groups int
	// Cells is the array length M.
	Cells int
	// Filled counts cells currently holding a non-reset value,
	// including stale values in groups awaiting their lazy cleaning.
	Filled int
	// Young counts cells with age < N: they have seen only part of the
	// window, so one-sided queries ignore them.
	Young int
	// Perfect counts cells with age exactly N — covering precisely the
	// window. Each group holds this age for a single tick per cycle, so
	// the count is fleeting: usually zero or one group's worth.
	Perfect int
	// Aged counts cells with age > N: they additionally remember items
	// older than the window until their next cleaning.
	Aged int
}

// FillRatio returns Filled/Cells (0 for an empty geometry).
func (s SketchStats) FillRatio() float64 {
	if s.Cells == 0 {
		return 0
	}
	return float64(s.Filled) / float64(s.Cells)
}

// ageClasses tallies cells into the young/perfect/aged classes at time
// now. cellsIn reports how many cells group gid holds (the last group
// of an uneven geometry is short). Read-only: no cleaning runs.
func (c *groupClock) ageClasses(now clockTime, cellsIn func(gid int) int) (young, perfect, aged int) {
	for gid := range c.groups() {
		n := cellsIn(gid)
		switch age := c.age(gid, now); {
		case age < c.N:
			young += n
		case age == c.N:
			perfect += n
		default:
			aged += n
		}
	}
	return young, perfect, aged
}

// statsCommon fills the window-level fields shared by every structure.
func statsCommon(cfg WindowConfig, k tickClock, gc *groupClock, cells int, cellsIn func(gid int) int) SketchStats {
	st := SketchStats{
		N:        cfg.N,
		Tcycle:   gc.T,
		Tick:     k.tick,
		CyclePos: k.now.r,
		Groups:   gc.groups(),
		Cells:    cells,
	}
	st.Young, st.Perfect, st.Aged = gc.ageClasses(k.now, cellsIn)
	return st
}

// size reports how many cells group gid holds — statsCommon's cellsIn
// for a grouped geometry.
func (g grouping) size(gid int) int {
	lo, hi := g.bounds(gid)
	return hi - lo
}

// countFilled counts packed-array entries differing from reset.
func countFilled(get func(i int) uint64, n int, reset uint64) int {
	filled := 0
	for i := 0; i < n; i++ {
		if get(i) != reset {
			filled++
		}
	}
	return filled
}

// Stats snapshots the filter's window state; see SketchStats.
func (f *BF) Stats() SketchStats {
	st := statsCommon(f.cfg, f.tickClock, f.gc, f.m, f.grp.size)
	for g := 0; g < len(f.data); g += f.gc.stride { // skip each clock word
		for _, w := range f.data[g+1 : g+f.gc.stride] {
			st.Filled += bits.OnesCount64(w)
		}
	}
	return st
}

// Stats snapshots the sketch's window state; see SketchStats.
func (c *counters) Stats() SketchStats {
	st := statsCommon(c.cfg, c.tickClock, c.gc, len(c.cells), c.grp.size)
	for _, v := range c.cells {
		if v != 0 {
			st.Filled++
		}
	}
	return st
}

// Stats snapshots the bitmap's window state; see SketchStats.
func (b *BM) Stats() SketchStats {
	st := statsCommon(b.cfg, b.tickClock, b.gc, b.bits.Len(), b.grp.size)
	st.Filled = b.bits.Ones()
	return st
}

// Stats snapshots the estimator's window state; see SketchStats. Each
// register is its own group, so Groups == Cells.
func (h *HLL) Stats() SketchStats {
	st := statsCommon(h.cfg, h.tickClock, h.gc, h.regs.Len(), func(int) int { return 1 })
	st.Filled = countFilled(h.regs.Get, h.regs.Len(), 0)
	return st
}

// Stats snapshots the generic engine's window state; see SketchStats.
// Filled counts cells differing from the CSM's ResetValue.
func (g *Generic) Stats() SketchStats {
	st := statsCommon(g.cfg, g.tickClock, g.gc, g.csm.Cells, g.grp.size)
	st.Filled = countFilled(g.cells.Get, g.csm.Cells, g.csm.ResetValue)
	return st
}
