package sketch

import "she/internal/hashing"

// hashFam is a small adapter over hashing.Family shared by the sketches
// in this package.
type hashFam struct {
	fam *hashing.Family
	k   int
}

func newHashFam(k int, seed uint64) *hashFam {
	return &hashFam{fam: hashing.NewFamily(k, seed), k: k}
}

func (h *hashFam) hash(i int, key uint64) uint64 { return h.fam.Hash(i, key) }

func (h *hashFam) index(i int, key uint64, n int) int { return h.fam.Index(i, key, n) }

// odd returns the multipliers hashing.Locate takes: the k-location
// loops mix the key once, as the SHE kernels do, so that the ratio
// between a kernel and its fixed-window twin is the framework's cost
// and not a difference in hashing.
func (h *hashFam) odd() []uint64 { return h.fam.Multipliers() }
