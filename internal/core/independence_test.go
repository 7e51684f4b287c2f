package core

import (
	"math"
	"math/rand"
	"testing"

	"she/internal/hashing"
)

// A query only trusts mature cells, and §5's error analysis takes the
// K cells of a key to be mature independently of one another, each
// with probability 1 − N/Tcycle. Group offsets are affine in the cell
// index (off = ⌊Tcycle·gid/G⌋), so that holds only if a key's K
// positions are jointly spread: hashing's own tests check the position
// scheme on a model of the clock; this one counts mature cells on the
// real one, at the geometry of one shed shard, and shows that positions
// in arithmetic progression (a + i·b) would be caught.

// matureCountChi2 is the worst χ², over eight times spread through a
// cleaning cycle, of the number of mature cells among the k positions
// index gives 100 000 random keys, against Binomial(k, 1 − N/Tcycle);
// counts expected fewer than ten times are pooled.
func matureCountChi2(gc *groupClock, grp grouping, k int, index func(i int, key uint64) int) float64 {
	const keys = 100_000
	q := 1 - float64(gc.N)/float64(gc.T)
	expect := make([]float64, k+1)
	c := 1.0
	for s := 0; s <= k; s++ {
		expect[s] = keys * c * math.Pow(q, float64(s)) * math.Pow(1-q, float64(k-s))
		c = c * float64(k-s) / float64(s+1)
	}
	worst := 0.0
	rng := rand.New(rand.NewSource(11))
	for step := uint64(0); step < 8; step++ {
		now := gc.at(5*gc.T + step*gc.T/8 + 12345)
		counts := make([]float64, k+1)
		for n := 0; n < keys; n++ {
			key, m := rng.Uint64(), 0
			for i := 0; i < k; i++ {
				if gc.mature(grp.of(index(i, key)), now) {
					m++
				}
			}
			counts[m]++
		}
		x, poolC, poolE := 0.0, 0.0, 0.0
		for s, e := range expect {
			if e < 10 {
				poolC, poolE = poolC+counts[s], poolE+e
			} else {
				x += (counts[s] - e) * (counts[s] - e) / e
			}
		}
		if poolE > 0 {
			x += (poolC - poolE) * (poolC - poolE) / poolE
		}
		worst = math.Max(worst, x)
	}
	return worst
}

func TestMatureCellsIndependent(t *testing.T) {
	// The 1 − 10⁻⁹ quantile of χ² with 8 degrees of freedom: a sound
	// scheme stays well below it on these fixed seeds.
	const limit = 53.0
	bf, err := NewBF(1<<19, DefaultGroupSize, DefaultHashes, WindowConfig{N: 1 << 17, Alpha: DefaultAlphaBF, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCM(1<<15, DefaultGroupSize, DefaultHashes, 32, WindowConfig{N: 1 << 17, Alpha: DefaultAlphaCM, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		gc    *groupClock
		grp   grouping
		fam   *hashing.Family
		cells int
	}{
		{"bf α=3", bf.gc, bf.grp, bf.fam, bf.m},
		{"cm α=1", cm.gc, cm.grp, cm.fam, len(cm.cells)},
	} {
		k := tc.fam.K()
		shipped := matureCountChi2(tc.gc, tc.grp, k, func(i int, key uint64) int { return tc.fam.Index(i, key, tc.cells) })
		if shipped > limit {
			t.Errorf("%s: mature cells among a key's %d are not binomial: χ² %.1f > %.0f", tc.name, k, shipped, limit)
		}
		// a + i·b on the 32-bit circle, reduced as Index reduces.
		double := matureCountChi2(tc.gc, tc.grp, k, func(i int, key uint64) int {
			h := hashing.Mix64(key)
			return int(uint64(uint32(h>>32)+uint32(i)*(uint32(h)|1)) * uint64(tc.cells) >> 32)
		})
		if double < 10*limit {
			t.Errorf("%s: a + i·b passed as binomial (χ² %.1f): the check has no power", tc.name, double)
		}
		t.Logf("%s: χ² shipped %.1f, a + i·b %.1f", tc.name, shipped, double)
	}
}
