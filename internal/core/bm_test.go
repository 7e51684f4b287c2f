package core

import (
	"math"
	"math/rand"
	"testing"

	"she/internal/exact"
)

func bmConfig(n uint64) WindowConfig {
	return WindowConfig{N: n, Alpha: 0.2, Seed: 2}
}

func TestBMCardinalityTracksWindow(t *testing.T) {
	const N = 1 << 12
	bm, err := NewBM(1<<15, 64, bmConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	win := exact.NewWindow(N)
	rng := rand.New(rand.NewSource(9))
	// Skewed-ish stream: ~2000 distinct in any window.
	for i := 0; i < 6*N; i++ {
		k := uint64(rng.Intn(2000))
		bm.Insert(k)
		win.Push(k)
	}
	truth := float64(win.Cardinality())
	est := bm.EstimateCardinality()
	if math.Abs(est-truth)/truth > 0.15 {
		t.Fatalf("estimate %.0f vs truth %.0f (err %.1f%%)", est, truth, 100*math.Abs(est-truth)/truth)
	}
}

func TestBMDuplicatesDoNotInflate(t *testing.T) {
	const N = 1024
	bm, err := NewBM(1<<14, 64, bmConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*N; i++ {
		bm.Insert(uint64(i % 50)) // only 50 distinct keys, heavily repeated
	}
	if est := bm.EstimateCardinality(); est > 150 {
		t.Fatalf("50 distinct keys estimated at %.0f", est)
	}
}

func TestBMExpiresOldKeys(t *testing.T) {
	const N = 512
	bm, err := NewBM(1<<14, 64, bmConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: 3000 distinct keys.
	for k := uint64(0); k < 3000; k++ {
		bm.Insert(k)
	}
	// Phase 2: only 100 distinct keys for many windows.
	for i := 0; i < 20*N; i++ {
		bm.Insert(uint64(100_000 + i%100))
	}
	if est := bm.EstimateCardinality(); est > 300 {
		t.Fatalf("stale cardinality persists: estimate %.0f, window holds 100 distinct", est)
	}
}

func TestBMEmptyEstimatesZeroish(t *testing.T) {
	bm, err := NewBM(4096, 64, bmConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if est := bm.EstimateCardinality(); est > 1 {
		t.Fatalf("fresh bitmap estimates %.2f", est)
	}
}

func TestBMRejectsBadParameters(t *testing.T) {
	if _, err := NewBM(0, 64, bmConfig(100)); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := NewBM(64, 0, bmConfig(100)); err == nil {
		t.Fatal("w=0 accepted")
	}
	if _, err := NewBM(64, 128, bmConfig(100)); err == nil {
		t.Fatal("w>m accepted")
	}
}

func TestBMEstimateIsFiniteUnderSaturation(t *testing.T) {
	bm, err := NewBM(256, 64, bmConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100_000; k++ {
		bm.Insert(k)
	}
	if est := bm.EstimateCardinality(); math.IsInf(est, 0) || math.IsNaN(est) {
		t.Fatalf("saturated bitmap produced %v", est)
	}
}

func TestSweepMatchesLazyAges(t *testing.T) {
	// The lazy group clock (w=1) and the sweeping cleaner must assign
	// identical ages to every cell at every time — the §3.2/§3.3
	// correspondence.
	const M = 64
	const T = 96
	gc := newGroupClock(M, T, 80)
	sw := newSweeper(M, T, func(lo, hi int) {})
	for tm := uint64(0); tm < 3*T; tm++ {
		for i := 0; i < M; i++ {
			if la, sa := gc.age(i, gc.at(tm)), sw.age(i, tm); la != sa {
				t.Fatalf("cell %d at t=%d: lazy age %d, sweep age %d", i, tm, la, sa)
			}
		}
	}
}

func TestSweeperCleansEveryCellOncePerCycle(t *testing.T) {
	const M = 50
	const T = 130
	cleaned := make([]int, M)
	sw := newSweeper(M, T, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cleaned[i]++
		}
	})
	for tm := uint64(1); tm <= 3*T; tm++ {
		sw.advance(tm)
	}
	for i, c := range cleaned {
		if c != 3 {
			t.Fatalf("cell %d cleaned %d times over 3 cycles, want 3", i, c)
		}
	}
}

func TestSweeperBigJumpCleansAll(t *testing.T) {
	const M = 32
	const T = 64
	cleaned := make([]bool, M)
	sw := newSweeper(M, T, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cleaned[i] = true
		}
	})
	sw.advance(10)
	for i := range cleaned {
		cleaned[i] = false
	}
	sw.advance(10 + 5*T) // long silence: everything must be swept
	for i, c := range cleaned {
		if !c {
			t.Fatalf("cell %d not cleaned across a %d-tick jump", i, 5*T)
		}
	}
}

func TestSweepBMMatchesLazyBMEstimates(t *testing.T) {
	// On a busy stream (every group touched each cycle) the hardware
	// (lazy) and software (sweep) bitmaps see the same cell state at
	// query time, so their estimates must be close; they use the same
	// hash seed so insertions land identically.
	// The premise of the equivalence is Eq. 1's: every group must be
	// touched at least once per cycle, which needs C·H/G well above 1.
	// 200 recurring keys over 512 cells give each live cell ~10 touches
	// per cycle, so aliasing is negligible and the two versions see the
	// same cell state.
	const N = 2048
	cfgL := bmConfig(N)
	lazy, err := NewBM(512, 1, cfgL) // w=1 to align group and cell granularity
	if err != nil {
		t.Fatal(err)
	}
	soft, err := NewSweepBM(512, cfgL)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 10*N; i++ {
		k := rng.Uint64() % 200
		lazy.Insert(k)
		soft.Insert(k)
	}
	le, se := lazy.EstimateCardinality(), soft.EstimateCardinality()
	if se == 0 || math.Abs(le-se)/se > 0.05 {
		t.Fatalf("lazy %.1f vs sweep %.1f diverge beyond aliasing noise", le, se)
	}
}
