package core

import (
	"fmt"

	"she/internal/bitpack"
	"she/internal/hashing"
)

// UpdateFunc is the F of the paper's Common Sketch Model triple
// ⟨C, K, F⟩ (§3.1): given the inserted key's hash material and the
// current cell value y, it returns the new cell value. The framework
// supplies aux = a secondary hash of the key, independently mixed per
// hashed location, so per-location-hash sketches (MinHash derives its
// i-th signature from H_i(x); HyperLogLog its rank) work naturally;
// pure counter updates ignore it.
type UpdateFunc func(aux uint64, y uint64) uint64

// ErrorSide describes a CSM algorithm's error direction, which decides
// the age-sensitive selection rule (§3.2): one-sided algorithms ignore
// young cells entirely; two-sided estimators accept cells with age in
// [βN, Tcycle).
type ErrorSide int

// Error sides.
const (
	// OneSided marks algorithms whose query must not be corrupted by
	// missing in-window information (Bloom filter, Count-Min): only
	// mature cells (age ≥ N) are exposed to Fold.
	OneSided ErrorSide = iota
	// TwoSided marks unbiased estimators (Bitmap, HyperLogLog,
	// MinHash): cells with age in [βN, Tcycle) are exposed.
	TwoSided
)

// CSM declares a Common Sketch Model algorithm to the generic SHE
// engine: cell geometry, hashed locations per insert, the update
// function and the error side. The five built-in structures are all
// expressible as CSMs (the tests hold the dedicated implementations and
// the generic engine to identical behaviour); the point of the type is
// everything else — any user-defined fixed-window sketch of this shape
// becomes a sliding-window sketch for free.
type CSM struct {
	// Cells is the array length M.
	Cells int
	// CellBits is the cell width C (1 for bit sketches, up to 64).
	CellBits uint
	// K is the number of hashed locations per insertion.
	K int
	// Locations overrides hashed-location selection when non-nil: it
	// must return K distinct-purpose indices in [0, Cells). The default
	// draws K independent uniform locations (Bloom/Count-Min style).
	// MinHash-style "update every cell" sketches return all indices.
	Locations func(fam *hashing.Family, key uint64, cells int) []int
	// Update is the F of the triple.
	Update UpdateFunc
	// Side selects the age rule for queries.
	Side ErrorSide
	// GroupSize is the cleaning group width w (0 = the default 64,
	// clamped to Cells).
	GroupSize int
	// ResetValue is the value a cleaned cell takes (0 for every paper
	// sketch except MinHash, which needs an "empty" sentinel).
	ResetValue uint64
}

// AllLocations is a Locations hook that selects every cell on each
// insertion — the MinHash-style "update the whole signature" pattern.
func AllLocations(_ *hashing.Family, _ uint64, cells int) []int {
	idx := make([]int, cells)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Generic is the SHE framework instantiated over an arbitrary CSM: the
// group time-marks, lazy cleaning and age-sensitive selection of §3.3,
// with the algorithm's own cell semantics plugged in.
type Generic struct {
	cfg    WindowConfig
	csm    CSM
	cells  *bitpack.Packed
	gc     *groupClock
	fam    *hashing.Family
	grp    grouping
	locBuf []int
	tickClock
}

// NewGeneric validates the CSM declaration and builds the engine.
func NewGeneric(csm CSM, cfg WindowConfig) (*Generic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if csm.Cells <= 0 {
		return nil, fmt.Errorf("core: csm needs a positive cell count, got %d", csm.Cells)
	}
	if csm.CellBits == 0 || csm.CellBits > 64 {
		return nil, fmt.Errorf("core: csm cell width must be in [1, 64], got %d", csm.CellBits)
	}
	if csm.K <= 0 {
		return nil, fmt.Errorf("core: csm needs at least one location per insert, got %d", csm.K)
	}
	if csm.Update == nil {
		return nil, fmt.Errorf("core: csm needs an update function")
	}
	w := csm.GroupSize
	if w == 0 {
		w = DefaultGroupSize
	}
	if w > csm.Cells {
		w = csm.Cells
	}
	if w <= 0 {
		return nil, fmt.Errorf("core: csm group size must be positive, got %d", w)
	}
	grp := newGrouping(csm.Cells, w)
	g := &Generic{
		cfg:    cfg,
		csm:    csm,
		cells:  bitpack.NewPacked(csm.Cells, csm.CellBits),
		gc:     newGroupClock(grp.count(), cfg.Tcycle(), cfg.N),
		fam:    hashing.NewFamily(csm.K+1, cfg.Seed), // +1: the aux hash
		grp:    grp,
		locBuf: make([]int, 0, csm.K),
	}
	if csm.ResetValue != 0 {
		for i := 0; i < csm.Cells; i++ {
			g.cells.Set(i, csm.ResetValue)
		}
	}
	return g, nil
}

// locations fills locBuf with the insertion's cell indices.
func (g *Generic) locations(key uint64) []int {
	if g.csm.Locations != nil {
		return g.csm.Locations(g.fam, key, g.csm.Cells)
	}
	g.locBuf = g.locBuf[:0]
	for i := 0; i < g.csm.K; i++ {
		g.locBuf = append(g.locBuf, g.fam.Index(i, key, g.csm.Cells))
	}
	return g.locBuf
}

// aux returns the secondary hash handed to Update.
func (g *Generic) aux(key uint64) uint64 { return g.fam.Hash(g.csm.K, key) }

// reset zeroes (or sentinel-fills) group gid.
func (g *Generic) reset(gid int) {
	lo, hi := g.grp.bounds(gid)
	if g.csm.ResetValue == 0 {
		g.cells.ResetRange(lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		g.cells.Set(i, g.csm.ResetValue)
	}
}

// Insert records key at the next count-based tick.
func (g *Generic) Insert(key uint64) { g.insert(key, g.advance(g.gc)) }

// InsertAt records key at explicit time t: every hashed group is
// check-cleaned, then its cell updated with F. The aux hash handed to F
// is re-mixed per location ordinal, making the locations' update
// material independent (MinHash's H_i(x)).
func (g *Generic) InsertAt(key uint64, t uint64) { g.insert(key, g.gc.at(t)) }

func (g *Generic) insert(key uint64, now clockTime) {
	base := g.aux(key)
	for li, j := range g.locations(key) {
		if gid := g.grp.of(j); g.gc.stale(gid, now) {
			g.reset(gid)
		}
		g.cells.Set(j, g.csm.Update(hashing.U64(base, uint64(li)), g.cells.Get(j)))
	}
}

// CellView is one legal cell as exposed to Fold: its index, value and
// age at query time.
type CellView struct {
	Index int
	Value uint64
	Age   uint64
}

// Fold visits key's hashed cells that pass the age-sensitive selection
// rule at the current tick and hands each to fn. It returns the number
// of legal cells visited. Queries are built on top: a Bloom-style
// membership is "no legal cell has value 0", a Count-Min estimate is
// the min over legal values, and so on.
func (g *Generic) Fold(key uint64, fn func(CellView)) int { return g.fold(key, g.now, fn) }

func (g *Generic) fold(key uint64, now clockTime, fn func(CellView)) int {
	legal, minAge := 0, g.minAge()
	for _, j := range g.locations(key) {
		gid := g.grp.of(j)
		if g.gc.stale(gid, now) {
			g.reset(gid)
		}
		if age := g.gc.age(gid, now); age >= minAge {
			legal++
			fn(CellView{Index: j, Value: g.cells.Get(j), Age: age})
		}
	}
	return legal
}

// FoldAll visits every legal cell of the array (estimator-style
// queries: Bitmap zero counting, HyperLogLog register harvesting).
func (g *Generic) FoldAll(fn func(CellView)) int { return g.foldAll(g.now, fn) }

func (g *Generic) foldAll(now clockTime, fn func(CellView)) int {
	legal, minAge := 0, g.minAge()
	for gid := 0; gid < g.gc.groups(); gid++ {
		if g.gc.stale(gid, now) {
			g.reset(gid)
		}
		age := g.gc.age(gid, now)
		if age < minAge {
			continue
		}
		lo, hi := g.grp.bounds(gid)
		for j := lo; j < hi; j++ {
			legal++
			fn(CellView{Index: j, Value: g.cells.Get(j), Age: age})
		}
	}
	return legal
}

// minAge is the age-sensitive selection rule's lower edge: N for
// one-sided algorithms (only mature cells), β·N for two-sided ones.
func (g *Generic) minAge() uint64 {
	if g.csm.Side == OneSided {
		return g.cfg.N
	}
	return g.cfg.legalFloor()
}

// Cell reports the raw value of cell i without cleaning or age
// filtering — a state-inspection hook mirroring BM.Bit.
func (g *Generic) Cell(i int) uint64 { return g.cells.Get(i) }

// Cells returns the array length M.
func (g *Generic) Cells() int { return g.csm.Cells }

// MemoryBits returns payload memory: cells plus group marks.
func (g *Generic) MemoryBits() int { return g.cells.MemoryBits() + g.gc.memoryBits() }
