package sketch

// sigMask truncates MinHash signatures to 24 bits, matching the paper's
// experimental setting ("the outputs of hash functions used in both
// algorithms are 24-bit integers").
const sigMask = 1<<24 - 1

// MinHash keeps, for each of m hash functions, the minimum 24-bit hash
// value observed over a stream. Two MinHash signatures estimate the
// Jaccard similarity of their streams by the fraction of positions that
// agree (Broder's classic estimator).
type MinHash struct {
	sig []uint32
	fam *hashFam
}

// NewMinHash returns a MinHash with m signature slots. Empty slots hold
// the sentinel ^uint32(0), which can never collide with a real 24-bit
// signature.
func NewMinHash(m int, seed uint64) *MinHash {
	mh := &MinHash{sig: make([]uint32, m), fam: newHashFam(m, seed)}
	mh.Reset()
	return mh
}

// Insert records key under every hash function.
func (mh *MinHash) Insert(key uint64) {
	for i := range mh.sig {
		h := uint32(mh.fam.hash(i, key)) & sigMask
		if h < mh.sig[i] {
			mh.sig[i] = h
		}
	}
}

// Similarity estimates the Jaccard index between the streams summarized
// by mh and other, which must have the same size and seed.
func (mh *MinHash) Similarity(other *MinHash) float64 {
	if len(mh.sig) != len(other.sig) {
		panic("sketch: minhash signature sizes differ")
	}
	eq := 0
	for i := range mh.sig {
		if mh.sig[i] == other.sig[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(mh.sig))
}

// Size returns the number of signature slots.
func (mh *MinHash) Size() int { return len(mh.sig) }

// Reset clears the signature to the empty state.
func (mh *MinHash) Reset() {
	for i := range mh.sig {
		mh.sig[i] = ^uint32(0)
	}
}

// MemoryBits returns the payload memory in bits (24-bit signatures).
func (mh *MinHash) MemoryBits() int { return len(mh.sig) * 24 }
