package sketch

import "she/internal/hashing"

// CountMin is the Count-Min sketch of Cormode & Muthukrishnan in the
// flat layout the SHE paper models: a single array of n counters, each
// item updating k hashed counters, queries returning the minimum. (The
// classic k-rows-of-n/k layout is the special case where the hash
// family partitions the array; the flat form matches the paper's CSM
// triple ⟨counter, k, F(x,y)=y+1⟩.)
type CountMin struct {
	counters []uint32
	fam      *hashFam
}

// NewCountMin returns a Count-Min sketch with n 32-bit counters and
// k hash functions.
func NewCountMin(n, k int, seed uint64) *CountMin {
	if n <= 0 {
		panic("sketch: count-min size must be positive")
	}
	return &CountMin{counters: make([]uint32, n), fam: newHashFam(k, seed)}
}

// Insert adds one occurrence of key.
func (cm *CountMin) Insert(key uint64) {
	n, base := uint64(len(cm.counters)), hashing.Mix64(key)
	for _, a := range cm.fam.odd() {
		if j := hashing.Locate(base, a, n); cm.counters[j] != ^uint32(0) {
			cm.counters[j]++
		}
	}
}

// EstimateFrequency returns the count-min estimate of key's frequency:
// the minimum over its k hashed counters. Never underestimates.
func (cm *CountMin) EstimateFrequency(key uint64) uint64 {
	n, base := uint64(len(cm.counters)), hashing.Mix64(key)
	min := ^uint32(0)
	for _, a := range cm.fam.odd() {
		if v := cm.counters[hashing.Locate(base, a, n)]; v < min {
			min = v
		}
	}
	return uint64(min)
}

// K returns the number of hash functions.
func (cm *CountMin) K() int { return cm.fam.k }

// Reset zeroes all counters.
func (cm *CountMin) Reset() {
	for i := range cm.counters {
		cm.counters[i] = 0
	}
}

// MemoryBits returns the payload memory in bits.
func (cm *CountMin) MemoryBits() int { return len(cm.counters) * 32 }
