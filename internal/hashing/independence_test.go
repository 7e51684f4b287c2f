package hashing

import (
	"math"
	"math/rand"
	"testing"
)

// The positions of one key come from a single Mix64 (Locate). SHE reads
// a cell's age off its position — a group's offset is affine in its
// index — so the positions must look independent not only one by one
// but jointly: a derivation that makes them an arithmetic progression
// (Kirsch–Mitzenmacher double hashing, a + i·b) makes the ages one too,
// and the number of a key's cells that are mature stops being binomial.
// These tests hold the shipped scheme to three χ² checks and run the
// same checks on a + i·b to show that the third one has the power to
// catch it.

const (
	indepKeys  = 200_000
	indepK     = 8
	indepCells = 1 << 19
	indepBins  = 64
)

// derivation maps a key to its k positions in [0, n).
type derivation func(key uint64, out []int)

func shipped(seed uint64) derivation {
	f := NewFamily(indepK, seed)
	return func(key uint64, out []int) {
		for i := range out {
			out[i] = f.Index(i, key, indepCells)
		}
	}
}

// doubleHashing is the scheme the family must not use: position i is
// a + i·b on the 32-bit circle, a and b the halves of the key's mix.
func doubleHashing(seed uint64) derivation {
	return func(key uint64, out []int) {
		h := Mix64(key ^ seed)
		a, b := uint32(h>>32), uint32(h)|1
		for i := range out {
			out[i] = int(uint64(a+uint32(i)*b) * indepCells >> 32)
		}
	}
}

// chi2 is Pearson's statistic of counts against expected shares p;
// categories expected fewer than ten times are pooled into one.
func chi2(counts []int, p []float64) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	x, poolC, poolE := 0.0, 0.0, 0.0
	for i, c := range counts {
		if e := float64(total) * p[i]; e < 10 {
			poolC, poolE = poolC+float64(c), poolE+e
		} else {
			x += (float64(c) - e) * (float64(c) - e) / e
		}
	}
	if poolE > 0 {
		x += (poolC - poolE) * (poolC - poolE) / poolE
	}
	return x
}

func uniform(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}

// binomial returns the Binomial(k, q) probabilities of 0…k successes.
func binomial(k int, q float64) []float64 {
	p := make([]float64, k+1)
	c := 1.0
	for s := 0; s <= k; s++ {
		p[s] = c * math.Pow(q, float64(s)) * math.Pow(1-q, float64(k-s))
		c = c * float64(k-s) / float64(s+1)
	}
	return p
}

// The 1 − 10⁻⁹ quantiles of χ² with 63 and with 8 degrees of freedom:
// some hundred statistics are compared per run, from fixed seeds, so a
// sound scheme stays below these and a + i·b's third statistic is in
// the thousands.
const (
	chi2Crit63 = 150.0
	chi2Crit8  = 53.0
)

// independenceStats returns the worst statistic of each check over all
// functions (a), pairs of functions (b) and clock positions (c). For
// (c) a cell at position j has age (r − j·T/n) mod T, as SHE's groups
// do, and is mature when that is at least N = T/(1+alpha).
func independenceStats(d derivation, keySeed int64, alpha float64) (a, b, c float64) {
	rng := rand.New(rand.NewSource(keySeed))
	marg := make([][]int, indepK)
	gaps := make([][]int, indepK*indepK)
	const times = 8
	mature := make([][]int, times)
	for i := range marg {
		marg[i] = make([]int, indepBins)
	}
	for i := range gaps {
		gaps[i] = make([]int, indepBins)
	}
	for i := range mature {
		mature[i] = make([]int, indepK+1)
	}
	young := int(float64(indepCells) / (1 + alpha)) // positions' worth of ages below N
	pos := make([]int, indepK)
	for n := 0; n < indepKeys; n++ {
		d(rng.Uint64(), pos)
		for i, p := range pos {
			marg[i][p*indepBins/indepCells]++
			for j := 0; j < i; j++ {
				g := (p - pos[j] + indepCells) % indepCells
				gaps[i*indepK+j][g*indepBins/indepCells]++
			}
		}
		for t := range mature {
			r := t*indepCells/times + 12345
			m := 0
			for _, p := range pos {
				if (r-p+2*indepCells)%indepCells >= young {
					m++
				}
			}
			mature[t][m]++
		}
	}
	for i := range marg {
		a = math.Max(a, chi2(marg[i], uniform(indepBins)))
		for j := 0; j < i; j++ {
			b = math.Max(b, chi2(gaps[i*indepK+j], uniform(indepBins)))
		}
	}
	q := 1 - float64(young)/indepCells
	for t := range mature {
		c = math.Max(c, chi2(mature[t], binomial(indepK, q)))
	}
	return a, b, c
}

// TestPositionsLookIndependent: per-function uniformity, uniform
// pairwise gaps and a binomial count of mature cells, at SHE-BF's
// α = 3 and SHE-CM's α = 1, over eight family seeds.
func TestPositionsLookIndependent(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, alpha := range []float64{3, 1} {
			a, b, c := independenceStats(shipped(seed), int64(seed), alpha)
			if a > chi2Crit63 || b > chi2Crit63 || c > chi2Crit8 {
				t.Errorf("seed %d α=%g: χ² uniform %.1f, gaps %.1f (limit %.0f), mature cells %.1f (limit %.0f)",
					seed, alpha, a, b, chi2Crit63, c, chi2Crit8)
			}
		}
	}
}

// TestDoubleHashingIsNotIndependent is the power check: a + i·b
// passes (a) and (b) and must fail (c).
func TestDoubleHashingIsNotIndependent(t *testing.T) {
	for _, alpha := range []float64{3, 1} {
		a, b, c := independenceStats(doubleHashing(7), 7, alpha)
		if a > chi2Crit63 || b > chi2Crit63 {
			t.Errorf("α=%g: a + i·b should pass the one- and two-function checks, got χ² %.1f and %.1f", alpha, a, b)
		}
		if c < 10*chi2Crit8 {
			t.Errorf("α=%g: a + i·b's mature-cell count passed as binomial (χ² %.1f): the check has no power", alpha, c)
		}
		t.Logf("α=%g: a + i·b χ² uniform %.1f, gaps %.1f, mature cells %.1f", alpha, a, b, c)
	}
}
