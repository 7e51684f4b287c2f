// Package sketch implements the five fixed-window algorithms the SHE
// paper's Common Sketch Model (CSM) covers: Bloom filter, Bitmap,
// HyperLogLog, Count-Min sketch and MinHash. These are the "original
// algorithms" §3.1 speaks of — each is an array of cells updated at K
// hashed locations with an update function F.
//
// They serve three roles here: the substrate the SHE framework extends,
// the "Ideal" reference the paper compares against (a fixed-window
// sketch rebuilt from the exact window contents), and the insertion
// cost baseline for the throughput experiments (Fig. 11).
package sketch

import (
	"she/internal/bitpack"
	"she/internal/hashing"
)

// BloomFilter is a classic Bloom filter over 64-bit keys: an m-bit
// array with k hash functions. One-sided error: MightContain never
// returns false for an inserted key.
type BloomFilter struct {
	bits *bitpack.BitArray
	fam  *hashFam
}

// NewBloomFilter returns a Bloom filter with m bits and k hash
// functions derived from seed.
func NewBloomFilter(m, k int, seed uint64) *BloomFilter {
	return &BloomFilter{bits: bitpack.NewBitArray(m), fam: newHashFam(k, seed)}
}

// Insert adds key to the filter.
func (bf *BloomFilter) Insert(key uint64) {
	m, base := uint64(bf.bits.Len()), hashing.Mix64(key)
	for _, a := range bf.fam.odd() {
		bf.bits.Set(int(hashing.Locate(base, a, m)))
	}
}

// MightContain reports whether key may have been inserted. False means
// definitely absent.
func (bf *BloomFilter) MightContain(key uint64) bool {
	m, base := uint64(bf.bits.Len()), hashing.Mix64(key)
	for _, a := range bf.fam.odd() {
		if !bf.bits.Get(int(hashing.Locate(base, a, m))) {
			return false
		}
	}
	return true
}

// Reset clears the filter.
func (bf *BloomFilter) Reset() { bf.bits.Reset() }

// K returns the number of hash functions.
func (bf *BloomFilter) K() int { return bf.fam.k }

// MemoryBits returns the payload memory in bits.
func (bf *BloomFilter) MemoryBits() int { return bf.bits.MemoryBits() }
