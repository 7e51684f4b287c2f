package hashing

// Family is a seeded family of k pairwise-independent hash functions
// over 64-bit keys. Sketches that hash one item to k locations (Bloom
// filter, Count-Min) draw their per-row functions from a Family so that
// two sketches built with the same master seed see identical hashes —
// which is what makes A/B accuracy comparisons meaningful.
type Family struct {
	// mixed[i] = Mix64(seed_i): U64(key, seed_i) mixes the seed on every
	// call, so the family keeps the mixed form and Hash pays one Mix64.
	mixed []uint64
}

// NewFamily derives k independent function seeds from the master seed.
func NewFamily(k int, master uint64) *Family {
	if k <= 0 {
		panic("hashing: family size must be positive")
	}
	f := &Family{mixed: make([]uint64, k)}
	s := master
	for i := range f.mixed {
		f.mixed[i] = Mix64(SplitMix64(&s))
	}
	return f
}

// K returns the number of functions in the family.
func (f *Family) K() int { return len(f.mixed) }

// Hash returns the i-th function applied to key: U64(key, seed_i).
func (f *Family) Hash(i int, key uint64) uint64 {
	return Mix64(key ^ f.mixed[i])
}

// Index returns the i-th function applied to key, reduced to [0, n).
// The reduction uses the high-quality multiply-shift ("Lemire") method
// rather than modulo, so n need not be prime.
func (f *Family) Index(i int, key uint64, n int) int {
	return ReduceRange(f.Hash(i, key), n)
}

// ReduceRange maps a 64-bit hash uniformly onto [0, n) without division
// (Lemire's multiply-shift reduction on the high 32 bits).
func ReduceRange(h uint64, n int) int {
	if n <= 0 {
		panic("hashing: range must be positive")
	}
	// Use the top 32 bits: (h>>32) * n >> 32 stays within uint64.
	return int((h >> 32) * uint64(n) >> 32)
}
