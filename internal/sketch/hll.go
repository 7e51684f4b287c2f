package sketch

import (
	"math"
	"math/bits"

	"she/internal/bitpack"
)

// rankBits is the width of a HyperLogLog register: ranks from a 32-bit
// hash fit in 5 bits (the setting the paper uses).
const rankBits = 5

// HLL is the HyperLogLog cardinality estimator of Flajolet et al.:
// m 5-bit registers, each holding the maximum "rank" (leading-zero
// count + 1) of the hashes routed to it.
type HLL struct {
	regs *bitpack.Packed
	fam  *hashFam
}

// NewHLL returns a HyperLogLog with m registers.
func NewHLL(m int, seed uint64) *HLL {
	return &HLL{regs: bitpack.NewPacked(m, rankBits), fam: newHashFam(2, seed)}
}

// Rank32 returns the HLL rank of a 32-bit hash value: the position of
// the leftmost 1 bit (leading zeros + 1), capped to fit a 5-bit
// register.
func Rank32(h uint32) uint64 {
	r := uint64(bits.LeadingZeros32(h)) + 1
	if r > 31 {
		r = 31
	}
	return r
}

// Insert records key.
func (h *HLL) Insert(key uint64) {
	i := h.fam.index(0, key, h.regs.Len())
	r := Rank32(uint32(h.fam.hash(1, key)))
	if r > h.regs.Get(i) {
		h.regs.Set(i, r)
	}
}

// alphaM returns the bias-correction constant for m registers.
func alphaM(m int) float64 {
	switch {
	case m <= 16:
		return 0.673
	case m <= 32:
		return 0.697
	case m <= 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// EstimateCardinality returns the HLL estimate with the standard
// small-range (linear counting) correction.
func (h *HLL) EstimateCardinality() float64 {
	var hist RankHist
	for i, m := 0, h.regs.Len(); i < m; i++ {
		hist[h.regs.Get(i)]++
	}
	return hist.Estimate()
}

// RankHist counts registers by rank: RankHist[r] registers hold rank r.
// It is everything the HyperLogLog estimate needs from a register file,
// so an estimator makes one pass over its registers into a RankHist and
// never touches floating point per register.
type RankHist [1 << rankBits]int

// pow2Neg[r] = 2^-r, exactly.
var pow2Neg = func() (t [1 << rankBits]float64) {
	for r := range t {
		t[r] = math.Ldexp(1, -r)
	}
	return t
}()

// Estimate returns the HyperLogLog estimate, with the standard
// small-range (linear counting) correction, of the registers counted.
//
// Σ c_r·2^-r is exact, whatever the order of summation: every term and
// every partial sum is a multiple of 2^-31, and below 2^22 registers
// the sum stays under 2^22, so it fits float64's 53-bit significand —
// the value a register-by-register loop adding 2^-rank produces.
func (h *RankHist) Estimate() float64 {
	m := 0
	sum := 0.0
	for r, c := range h {
		m += c
		sum += float64(c) * pow2Neg[r]
	}
	if m == 0 {
		return 0
	}
	est := alphaM(m) * float64(m) * float64(m) / sum
	if zeros := h[0]; est <= 2.5*float64(m) && zeros > 0 {
		// Small-range correction: linear counting on empty registers.
		est = float64(m) * math.Log(float64(m)/float64(zeros))
	}
	return est
}

// EstimateFromRegisters computes the HyperLogLog estimate from an
// arbitrary register accessor returning 5-bit ranks; the sliding-window
// variants that filter registers through an accessor (SHLL, the sweep
// twins) reuse it.
func EstimateFromRegisters(reg func(i int) uint64, m int) float64 {
	var h RankHist
	for i := 0; i < m; i++ {
		h[reg(i)]++
	}
	return h.Estimate()
}

// Registers returns the number of registers.
func (h *HLL) Registers() int { return h.regs.Len() }

// Reset clears every register.
func (h *HLL) Reset() { h.regs.Reset() }

// MemoryBits returns the payload memory in bits.
func (h *HLL) MemoryBits() int { return h.regs.MemoryBits() }
