package baseline

import (
	"fmt"

	"she/internal/bitpack"
)

// TinyTable is a counting fingerprint table in the spirit of Einziger &
// Friedman's TinyTable (the structure SWAMP builds on): fingerprints
// are split into a home bucket and a remainder; each occupied slot
// stores the remainder, a small saturating counter and the slot's
// displacement from its home bucket. A full bucket overflows into the
// following buckets — the bounded version of the "domino effect" §2.3
// of the SHE paper points at when arguing SWAMP cannot run on hardware
// pipelines: one insertion may touch up to maxDisplacement consecutive
// buckets.
//
// Memory per slot is remainderBits + counterBits + dispBits, all
// bit-packed; MemoryBits reports the true footprint, which is what the
// honest SWAMP memory accounting in the Fig. 9 experiments uses.
type TinyTable struct {
	rem  *bitpack.Packed // remainder per slot; slot empty ⇔ counter == 0
	cnt  *bitpack.Packed
	disp *bitpack.Packed

	buckets  int
	slots    int // per bucket
	rbits    uint
	cbits    uint
	overflow int // insertions dropped because no slot was reachable
}

// tinyDispBits bounds displacement to 2^4−1 buckets — the constraint
// that keeps one operation's memory touch bounded (and that the
// original table trades against occasional drops).
const tinyDispBits = 4

// maxDisplacement is the furthest bucket an item may overflow to.
const maxDisplacement = 1<<tinyDispBits - 1

// NewTinyTable creates a table of buckets×slots slots with
// remainderBits-bit remainders and counterBits-bit saturating counters.
func NewTinyTable(buckets, slots int, remainderBits, counterBits uint) (*TinyTable, error) {
	if buckets <= 0 || slots <= 0 {
		return nil, fmt.Errorf("baseline: tinytable needs positive geometry, got %d×%d", buckets, slots)
	}
	if remainderBits == 0 || remainderBits > 32 {
		return nil, fmt.Errorf("baseline: tinytable remainder bits must be in [1, 32], got %d", remainderBits)
	}
	if counterBits < 2 || counterBits > 16 {
		return nil, fmt.Errorf("baseline: tinytable counter bits must be in [2, 16], got %d", counterBits)
	}
	n := buckets * slots
	return &TinyTable{
		rem:     bitpack.NewPacked(n, remainderBits),
		cnt:     bitpack.NewPacked(n, counterBits),
		disp:    bitpack.NewPacked(n, tinyDispBits),
		buckets: buckets,
		slots:   slots,
		rbits:   remainderBits,
		cbits:   counterBits,
	}, nil
}

// split derives the home bucket and remainder from a fingerprint.
func (t *TinyTable) split(fp uint64) (home int, r uint64) {
	r = fp & (1<<t.rbits - 1)
	home = int((fp >> t.rbits) % uint64(t.buckets))
	return home, r
}

// findSlot scans home..home+maxDisplacement for a slot holding (home,
// r); returns the slot index or -1.
func (t *TinyTable) findSlot(home int, r uint64) int {
	for d := 0; d <= maxDisplacement; d++ {
		b := (home + d) % t.buckets
		base := b * t.slots
		for s := 0; s < t.slots; s++ {
			i := base + s
			if t.cnt.Get(i) != 0 && t.disp.Get(i) == uint64(d) && t.rem.Get(i) == r {
				return i
			}
		}
	}
	return -1
}

// Add inserts one occurrence of fingerprint fp. Returns false when the
// item had to be dropped (every reachable slot occupied) — the bounded
// domino's failure mode, counted in Overflows.
func (t *TinyTable) Add(fp uint64) bool {
	home, r := t.split(fp)
	if i := t.findSlot(home, r); i >= 0 {
		t.cnt.AddSat(i, 1)
		return true
	}
	for d := 0; d <= maxDisplacement; d++ {
		b := (home + d) % t.buckets
		base := b * t.slots
		for s := 0; s < t.slots; s++ {
			i := base + s
			if t.cnt.Get(i) == 0 {
				t.rem.Set(i, r)
				t.disp.Set(i, uint64(d))
				t.cnt.Set(i, 1)
				return true
			}
		}
	}
	t.overflow++
	return false
}

// Remove deletes one occurrence of fp. Removing a fingerprint that is
// not present is a no-op (it was dropped at insertion time).
func (t *TinyTable) Remove(fp uint64) {
	home, r := t.split(fp)
	i := t.findSlot(home, r)
	if i < 0 {
		return
	}
	c := t.cnt.Get(i)
	if c == t.cnt.Max() {
		// A saturated counter has lost its exact count; keep it pinned
		// (the classic counting-filter compromise: never underestimate).
		return
	}
	t.cnt.Set(i, c-1)
}

// Count returns the occurrence count recorded for fp (0 if absent).
func (t *TinyTable) Count(fp uint64) uint64 {
	home, r := t.split(fp)
	if i := t.findSlot(home, r); i >= 0 {
		return t.cnt.Get(i)
	}
	return 0
}

// Contains reports whether fp is present.
func (t *TinyTable) Contains(fp uint64) bool { return t.Count(fp) > 0 }

// Distinct returns the number of occupied slots — the distinct
// fingerprint count SWAMP's cardinality estimator starts from.
func (t *TinyTable) Distinct() int {
	n := 0
	for i := 0; i < t.cnt.Len(); i++ {
		if t.cnt.Get(i) != 0 {
			n++
		}
	}
	return n
}

// Overflows returns how many insertions were dropped.
func (t *TinyTable) Overflows() int { return t.overflow }

// MemoryBits returns the packed footprint of all three slot fields.
func (t *TinyTable) MemoryBits() int {
	return t.rem.MemoryBits() + t.cnt.MemoryBits() + t.disp.MemoryBits()
}
