package hashing

// Family is a seeded family of k hash functions over 64-bit keys.
// Sketches that hash one item to k locations (Bloom filter, Count-Min)
// draw their per-row functions from a Family so that two sketches built
// with the same master seed see identical hashes — which is what makes
// A/B accuracy comparisons meaningful.
//
// Hash is a full mix per function, for callers that consume the value
// (MinHash signatures, HLL ranks); Index is a position, and one key's k
// positions share one mix of the key (Locate): position scheme 2, the
// one core's "SHE2" snapshots are placed under.
type Family struct {
	// mixed[i] = Mix64(seed_i): U64(key, seed_i) mixes the seed on every
	// call, so the family keeps the mixed form and Hash pays one Mix64.
	mixed []uint64
	odd   []uint64 // mixed[i] | 1, function i's multiplier in Locate
}

// NewFamily derives k independent function seeds from the master seed.
func NewFamily(k int, master uint64) *Family {
	if k <= 0 {
		panic("hashing: family size must be positive")
	}
	f := &Family{mixed: make([]uint64, k), odd: make([]uint64, k)}
	s := master
	for i := range f.mixed {
		f.mixed[i] = Mix64(SplitMix64(&s))
		f.odd[i] = f.mixed[i] | 1
	}
	return f
}

// K returns the number of functions in the family.
func (f *Family) K() int { return len(f.mixed) }

// Hash returns the i-th function applied to key: U64(key, seed_i).
func (f *Family) Hash(i int, key uint64) uint64 {
	return Mix64(key ^ f.mixed[i])
}

// Index returns the i-th function's position for key in [0, n): the
// cold form of Locate.
func (f *Family) Index(i int, key uint64, n int) int {
	return ReduceRange(Mix64(key)*f.odd[i], n)
}

// Multipliers returns the constants Locate takes, one a function, for
// loops that keep them in a local; callers must not modify the slice.
func (f *Family) Multipliers() []uint64 { return f.odd }

// Locate maps base = Mix64(key) to a position in [0, n), n ≤ 2³², under
// one function's multiplier: multiply-shift hashing of the mixed key,
// reduced as ReduceRange reduces. The multipliers are unrelated odd
// numbers, so a key's positions are no arithmetic progression in the
// function index — which SHE, whose cell ages are affine in position,
// could not use (DESIGN.md §12).
func Locate(base, odd, n uint64) uint64 { return (base * odd >> 32) * n >> 32 }

// ReduceRange maps a 64-bit hash uniformly onto [0, n) without division
// (Lemire's multiply-shift reduction on the high 32 bits).
func ReduceRange(h uint64, n int) int {
	if n <= 0 {
		panic("hashing: range must be positive")
	}
	// Use the top 32 bits: (h>>32) * n >> 32 stays within uint64.
	return int((h >> 32) * uint64(n) >> 32)
}
