package analysis

import (
	"errors"
	"math"
)

// BloomPlan is a recommended SHE-BF geometry for a workload.
type BloomPlan struct {
	// Bits is the filter size m.
	Bits int
	// GroupSize is the cleaning group width w.
	GroupSize int
	// Hashes is the number of hash functions k.
	Hashes int
	// Alpha is the Eq. 2-optimal cleaning slack for the geometry.
	Alpha float64
	// ModelFPR is the §5.2 model's predicted false positive rate.
	ModelFPR float64
}

// PlanBloom searches for the smallest SHE-BF that the §5.2 model
// predicts will meet targetFPR for a window holding windowDistinct
// distinct keys. It sweeps k over 2..16 and doubles the bit budget
// until the model (evaluated at its own optimal α, Eq. 2) clears the
// target. The returned plan uses the paper's default 64-bit groups.
//
// The model assumes the Eq. 1 regime (every group touched each cycle),
// which PlanBloom enforces by never letting the group count exceed
// windowDistinct·k/8.
func PlanBloom(windowDistinct float64, targetFPR float64) (BloomPlan, error) {
	if windowDistinct <= 0 {
		return BloomPlan{}, errors.New("analysis: window distinct count must be positive")
	}
	if targetFPR <= 0 || targetFPR >= 1 {
		return BloomPlan{}, errors.New("analysis: target FPR must lie strictly between 0 and 1")
	}
	const w = 64
	// Start at 2 bits per distinct key and grow.
	for bits := nextPow2(int(2 * windowDistinct)); bits > 0 && int64(bits) <= 1<<34; bits *= 2 { // bits > 0: a 32-bit int wraps first
		groups := bits / w
		maxGroups := func(k int) float64 { return windowDistinct * float64(k) / 8 }
		best := BloomPlan{}
		found := false
		for k := 2; k <= 16; k++ {
			if float64(groups) > maxGroups(k) {
				continue // outside the Eq. 1 regime: cleaning would miss groups
			}
			Q := QBF(w, groups, windowDistinct, k)
			if Q <= 0 || Q >= 1 {
				continue
			}
			R, err := OptimalR(Q)
			if err != nil {
				continue
			}
			fpr := FPR(R, Q, k)
			if !found || fpr < best.ModelFPR {
				best = BloomPlan{Bits: bits, GroupSize: w, Hashes: k, Alpha: R - 1, ModelFPR: fpr}
				found = true
			}
		}
		if found && best.ModelFPR <= targetFPR {
			return best, nil
		}
	}
	return BloomPlan{}, errors.New("analysis: no geometry under 2 GiB meets the target")
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	if p < 1024 {
		p = 1024
	}
	return p
}

// BMVariance returns §5.3's variance of the zero-bit proportion
// estimator: Var(û/mℓ) = p·(1−p)/mℓ for true zero proportion p over mℓ
// legal bits. (The paper states p/mℓ, the p≪1 form.) The experiments
// use it to sanity-check that α is not so small that the legal sample
// mℓ = (2−2/(1+α))·m starves.
func BMVariance(p float64, m int, alpha float64) float64 {
	ml := (2 - 2/(1+alpha)) * float64(m)
	if ml <= 0 {
		return math.Inf(1)
	}
	return p * (1 - p) / ml
}

// LegalFraction returns the fraction of cells with legal age for the
// two-sided estimators at cleaning slack α (with the β = 1−α default):
// 2α/(1+α), capped at 1.
func LegalFraction(alpha float64) float64 {
	f := 2 * alpha / (1 + alpha)
	if f > 1 {
		return 1
	}
	return f
}
