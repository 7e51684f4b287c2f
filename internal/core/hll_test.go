package core

import (
	"math"
	"math/rand"
	"testing"

	"she/internal/exact"
)

func hllConfig(n uint64) WindowConfig {
	return WindowConfig{N: n, Alpha: 0.2, Seed: 3}
}

func TestHLLTracksWindowCardinality(t *testing.T) {
	const N = 1 << 14
	h, err := NewHLL(2048, hllConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	win := exact.NewWindow(N)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6*N; i++ {
		k := rng.Uint64() % 8000
		h.Insert(k)
		win.Push(k)
	}
	truth := float64(win.Cardinality())
	est := h.EstimateCardinality()
	if math.Abs(est-truth)/truth > 0.25 {
		t.Fatalf("estimate %.0f vs truth %.0f", est, truth)
	}
}

func TestHLLExpiresOldKeys(t *testing.T) {
	const N = 4096
	h, err := NewHLL(1024, hllConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: large cardinality.
	for k := uint64(0); k < 100_000; k++ {
		h.Insert(k)
	}
	// Phase 2: a 5000-key recurring set for several cycles. (The
	// cardinality must stay well above the register count so every
	// register keeps being touched — Eq. 1's on-demand cleaning
	// precondition; far below it, aliased registers legitimately retain
	// stale ranks, which is the §5.1 error the paper accepts.)
	for i := 0; i < 10*N; i++ {
		h.Insert(uint64(500_000 + i%5000))
	}
	if est := h.EstimateCardinality(); est > 7500 {
		t.Fatalf("stale cardinality persists: estimate %.0f, window holds ~4100 distinct", est)
	}
}

func TestHLLEmptyEstimatesZero(t *testing.T) {
	h, err := NewHLL(256, hllConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	if est := h.EstimateCardinality(); est > 1 {
		t.Fatalf("fresh HLL estimates %.2f", est)
	}
}

func TestHLLRejectsBadParameters(t *testing.T) {
	if _, err := NewHLL(0, hllConfig(100)); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := NewHLL(10, WindowConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestHLLMemoryBits(t *testing.T) {
	h, err := NewHLL(100, hllConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.MemoryBits(); got != 100*5+100 {
		t.Fatalf("MemoryBits=%d, want 600 (5-bit regs + marks)", got)
	}
}

func TestHLLDuplicatesDoNotInflate(t *testing.T) {
	h, err := NewHLL(512, hllConfig(2048))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		h.Insert(uint64(i % 300))
	}
	if est := h.EstimateCardinality(); est > 900 {
		t.Fatalf("300 distinct keys estimated at %.0f", est)
	}
}

// powEstimateAt is HLL.estimate as it stood before the rank histogram:
// the legal registers gathered into a slice, one math.Pow each. Kept as
// the reference the histogram form must equal bit for bit.
func powEstimateAt(h *HLL, t uint64) float64 {
	now := h.gc.at(t)
	floor := h.cfg.legalFloor()
	legal := make([]uint64, 0, h.regs.Len())
	for i := 0; i < h.regs.Len(); i++ {
		if h.gc.stale(i, now) {
			h.regs.Set(i, 0)
		}
		if h.gc.legalTwoSided(i, now, floor) {
			legal = append(legal, h.regs.Get(i))
		}
	}
	k := len(legal)
	if k == 0 {
		return 0
	}
	sum := 0.0
	zeros := 0
	for _, r := range legal {
		sum += math.Pow(2, -float64(r))
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/float64(k))
	switch {
	case k <= 16:
		alpha = 0.673
	case k <= 32:
		alpha = 0.697
	case k <= 64:
		alpha = 0.709
	}
	est := alpha * float64(k) * float64(k) / sum
	if est <= 2.5*float64(k) && zeros > 0 {
		est = float64(k) * math.Log(float64(k)/float64(zeros))
	}
	return est * float64(h.regs.Len()) / float64(k)
}

// TestHLLEstimateBitIdentical holds EstimateCardinalityAt to the Pow
// loop it replaced over twin register files — estimating cleans stale
// registers, so each side gets its own copy — filled to reach every
// branch (empty, saturated, small-range correction on and off, no legal
// register at all) from 16 registers to 2^20, at times spread across
// two cleaning cycles.
func TestHLLEstimateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fills := map[string]func() uint64{
		"all-zero": func() uint64 { return 0 },
		"all-31":   func() uint64 { return 31 },
		"sparse": func() uint64 {
			if rng.Intn(10) == 0 {
				return uint64(1 + rng.Intn(31))
			}
			return 0
		},
		"dense":   func() uint64 { return uint64(1 + rng.Intn(31)) },
		"uniform": func() uint64 { return uint64(rng.Intn(32)) },
	}
	check := func(name string, m int, cfg WindowConfig, fill func() uint64, times []uint64) {
		t.Helper()
		got, _ := NewHLL(m, cfg)
		want, _ := NewHLL(m, cfg)
		for i := 0; i < m; i++ {
			r := fill()
			got.regs.Set(i, r)
			want.regs.Set(i, r)
		}
		for _, at := range times {
			g, w := got.EstimateCardinalityAt(at), powEstimateAt(want, at)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("m=%d %s t=%d: histogram estimate %v (%#x), Pow loop %v (%#x)",
					m, name, at, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	const N = 1 << 12
	cfg := hllConfig(N)
	T := cfg.Tcycle()
	times := []uint64{0, N / 2, N, T - 1, T, T + N/3, 2*T + 17}
	for _, m := range []int{16, 17, 64, 1000, 1 << 14, 1<<17 + 3, 1 << 20} {
		for name, fill := range fills {
			check(name, m, cfg, fill, times)
		}
	}
	// One register, legal only once its age reaches β·N: at t = 0 there
	// is no legal register and the estimate is 0 on both sides.
	check("no-legal", 1, cfg, fills["dense"], []uint64{0, 1, N})

	// And through real inserts, count-based.
	got, _ := NewHLL(4096, cfg)
	want, _ := NewHLL(4096, cfg)
	for i := 0; i < 5*N; i++ {
		k := rng.Uint64() % 3000
		got.Insert(k)
		want.Insert(k)
		if i%613 == 0 {
			g, w := got.EstimateCardinality(), powEstimateAt(want, want.tick)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("after %d inserts: %v, Pow loop %v", i+1, g, w)
			}
		}
	}
}
