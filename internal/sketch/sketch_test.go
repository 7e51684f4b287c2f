package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	bf := NewBloomFilter(1<<14, 8, 1)
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64()
		bf.Insert(keys[i])
	}
	for _, k := range keys {
		if !bf.MightContain(k) {
			t.Fatalf("false negative for inserted key %#x", k)
		}
	}
}

func TestBloomFalsePositiveRateReasonable(t *testing.T) {
	// 2^14 bits, 1000 keys, k=8: theoretical FPR ≈ (1−e^{−kn/m})^k ≈ 2e-3.
	bf := NewBloomFilter(1<<14, 8, 1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		bf.Insert(rng.Uint64())
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if bf.MightContain(rng.Uint64()) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.02 {
		t.Fatalf("FPR %.4f far above the ~0.002 theory predicts", rate)
	}
}

func TestBloomQuickProperty(t *testing.T) {
	bf := NewBloomFilter(4096, 4, 9)
	if err := quick.Check(func(key uint64) bool {
		bf.Insert(key)
		return bf.MightContain(key)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBloomReset(t *testing.T) {
	bf := NewBloomFilter(1024, 4, 2)
	bf.Insert(42)
	bf.Reset()
	if bf.MightContain(42) {
		t.Fatal("key survived Reset (all bits should be cleared)")
	}
}

func TestBitmapCardinality(t *testing.T) {
	bm := NewBitmap(1<<16, 7)
	rng := rand.New(rand.NewSource(5))
	const distinct = 10000
	keys := make([]uint64, distinct)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	// Insert each key several times: duplicates must not inflate.
	for rep := 0; rep < 3; rep++ {
		for _, k := range keys {
			bm.Insert(k)
		}
	}
	est := bm.EstimateCardinality()
	if math.Abs(est-distinct)/distinct > 0.05 {
		t.Fatalf("bitmap estimate %.0f, want within 5%% of %d", est, distinct)
	}
}

func TestBitmapEmptyIsZero(t *testing.T) {
	bm := NewBitmap(1024, 1)
	if got := bm.EstimateCardinality(); got != 0 {
		t.Fatalf("empty bitmap estimates %.2f, want 0", got)
	}
}

func TestBitmapSaturationReturnsFinite(t *testing.T) {
	bm := NewBitmap(64, 2)
	for k := uint64(0); k < 10000; k++ {
		bm.Insert(k)
	}
	if est := bm.EstimateCardinality(); math.IsInf(est, 0) || math.IsNaN(est) {
		t.Fatalf("saturated bitmap produced %v", est)
	}
}

func TestHLLCardinalityAccuracy(t *testing.T) {
	for _, distinct := range []int{1000, 50000, 1000000} {
		h := NewHLL(1024, 11)
		for k := 0; k < distinct; k++ {
			h.Insert(uint64(k) * 2654435761)
		}
		est := h.EstimateCardinality()
		// Standard error is about 1.04/sqrt(1024) ≈ 3.3%; allow 5σ.
		if math.Abs(est-float64(distinct))/float64(distinct) > 0.17 {
			t.Fatalf("HLL estimate %.0f for %d distinct (err %.1f%%)", est, distinct,
				100*math.Abs(est-float64(distinct))/float64(distinct))
		}
	}
}

func TestHLLDuplicatesDoNotInflate(t *testing.T) {
	h := NewHLL(512, 13)
	for rep := 0; rep < 100; rep++ {
		for k := uint64(0); k < 100; k++ {
			h.Insert(k)
		}
	}
	if est := h.EstimateCardinality(); est > 200 {
		t.Fatalf("100 distinct keys estimated at %.0f after heavy repetition", est)
	}
}

func TestHLLSmallRangeCorrection(t *testing.T) {
	h := NewHLL(1024, 17)
	for k := uint64(0); k < 10; k++ {
		h.Insert(k)
	}
	est := h.EstimateCardinality()
	if est < 5 || est > 20 {
		t.Fatalf("small-range estimate %.1f for 10 distinct", est)
	}
}

func TestRank32(t *testing.T) {
	cases := []struct {
		h    uint32
		want uint64
	}{
		{0x80000000, 1},
		{0x40000000, 2},
		{0x00000001, 32 - 1 + 1 - 1}, // 31 leading zeros, capped at 31
		{0x00000000, 31},             // capped
		{0xFFFFFFFF, 1},
	}
	for _, c := range cases {
		if got := Rank32(c.h); got != c.want {
			t.Fatalf("Rank32(%#x)=%d, want %d", c.h, got, c.want)
		}
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm := NewCountMin(4096, 8, 19)
	rng := rand.New(rand.NewSource(6))
	truth := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(500))
		truth[k]++
		cm.Insert(k)
	}
	for k, want := range truth {
		if got := cm.EstimateFrequency(k); got < want {
			t.Fatalf("key %d estimated %d below true %d", k, got, want)
		}
	}
}

func TestCountMinAccuracyWithRoom(t *testing.T) {
	cm := NewCountMin(1<<16, 8, 23)
	for k := uint64(0); k < 100; k++ {
		for j := uint64(0); j <= k; j++ {
			cm.Insert(k)
		}
	}
	for k := uint64(0); k < 100; k++ {
		want := k + 1
		got := cm.EstimateFrequency(k)
		if got < want || got > want+5 {
			t.Fatalf("key %d estimated %d, want close to %d", k, got, want)
		}
	}
}

func TestCountMinUnknownKeyUsuallyZero(t *testing.T) {
	cm := NewCountMin(1<<16, 8, 29)
	for k := uint64(0); k < 100; k++ {
		cm.Insert(k)
	}
	if got := cm.EstimateFrequency(999999); got > 2 {
		t.Fatalf("unseen key estimated at %d in a near-empty sketch", got)
	}
}

func TestMinHashIdenticalStreams(t *testing.T) {
	a := NewMinHash(128, 31)
	b := NewMinHash(128, 31)
	for k := uint64(0); k < 1000; k++ {
		a.Insert(k)
		b.Insert(k)
	}
	if sim := a.Similarity(b); sim != 1 {
		t.Fatalf("identical streams similarity %.3f, want 1", sim)
	}
}

func TestMinHashDisjointStreams(t *testing.T) {
	a := NewMinHash(128, 31)
	b := NewMinHash(128, 31)
	for k := uint64(0); k < 1000; k++ {
		a.Insert(k)
		b.Insert(k + 1_000_000)
	}
	if sim := a.Similarity(b); sim > 0.05 {
		t.Fatalf("disjoint streams similarity %.3f, want ~0", sim)
	}
}

func TestMinHashPartialOverlap(t *testing.T) {
	// |A|=|B|=1000, overlap 500 → J = 500/1500 ≈ 0.333.
	a := NewMinHash(512, 37)
	b := NewMinHash(512, 37)
	for k := uint64(0); k < 1000; k++ {
		a.Insert(k)
		b.Insert(k + 500)
	}
	sim := a.Similarity(b)
	if math.Abs(sim-1.0/3) > 0.08 {
		t.Fatalf("overlap similarity %.3f, want ≈0.333", sim)
	}
}

func TestMinHashMismatchedSizesPanic(t *testing.T) {
	a := NewMinHash(16, 1)
	b := NewMinHash(32, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched signature sizes")
		}
	}()
	a.Similarity(b)
}

func TestMemoryBitsAccounting(t *testing.T) {
	if got := NewBloomFilter(1000, 4, 0).MemoryBits(); got != 1000 {
		t.Fatalf("bloom MemoryBits=%d", got)
	}
	if got := NewBitmap(2048, 0).MemoryBits(); got != 2048 {
		t.Fatalf("bitmap MemoryBits=%d", got)
	}
	if got := NewHLL(100, 0).MemoryBits(); got != 500 {
		t.Fatalf("hll MemoryBits=%d", got)
	}
	if got := NewCountMin(10, 2, 0).MemoryBits(); got != 320 {
		t.Fatalf("countmin MemoryBits=%d", got)
	}
	if got := NewMinHash(10, 0).MemoryBits(); got != 240 {
		t.Fatalf("minhash MemoryBits=%d", got)
	}
}

// powEstimate is the register-by-register estimator EstimateFromRegisters
// replaced, kept as the reference the histogram form must equal bit for
// bit: one math.Pow per register, summed in register order.
func powEstimate(reg func(i int) uint64, m int) float64 {
	if m == 0 {
		return 0
	}
	sum := 0.0
	zeros := 0
	for i := 0; i < m; i++ {
		r := reg(i)
		sum += math.Pow(2, -float64(r))
		if r == 0 {
			zeros++
		}
	}
	est := alphaM(m) * float64(m) * float64(m) / sum
	if est <= 2.5*float64(m) && zeros > 0 {
		est = float64(m) * math.Log(float64(m)/float64(zeros))
	}
	return est
}

// TestEstimateFromRegistersBitIdentical: the rank-histogram estimate is
// the Pow loop's, to the last bit, over register files that reach every
// branch — empty, saturated, sparse (small-range correction on) and
// dense (off) — at every size from 16 to 2^20 registers.
func TestEstimateFromRegistersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fills := map[string]func() uint64{
		"all-zero": func() uint64 { return 0 },
		"all-31":   func() uint64 { return 31 },
		"sparse": func() uint64 { // mostly empty: linear counting applies
			if rng.Intn(10) == 0 {
				return uint64(1 + rng.Intn(31))
			}
			return 0
		},
		"dense":     func() uint64 { return uint64(1 + rng.Intn(31)) },
		"geometric": func() uint64 { return Rank32(rng.Uint32()) },
		"uniform":   func() uint64 { return uint64(rng.Intn(32)) },
	}
	for _, m := range []int{0, 16, 17, 32, 64, 100, 4096, 1 << 14, 1<<17 + 3, 1 << 20} {
		regs := make([]uint64, m)
		get := func(i int) uint64 { return regs[i] }
		for name, fill := range fills {
			for i := range regs {
				regs[i] = fill()
			}
			got, want := EstimateFromRegisters(get, m), powEstimate(get, m)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("m=%d %s: histogram estimate %v (%#x), Pow loop %v (%#x)",
					m, name, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestHLLEstimateMatchesAccessorForm: HLL.EstimateCardinality fills its
// histogram straight from the packed registers; it must agree with the
// accessor form over the same registers.
func TestHLLEstimateMatchesAccessorForm(t *testing.T) {
	h := NewHLL(2048, 5)
	for i := uint64(0); i < 20_000; i++ {
		h.Insert(i * 0x9e3779b97f4a7c15)
		if i%997 == 0 {
			got := h.EstimateCardinality()
			want := powEstimate(func(i int) uint64 { return h.regs.Get(i) }, h.regs.Len())
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("after %d inserts: %v, Pow loop %v", i+1, got, want)
			}
		}
	}
}

// TestLocationLoopsMatchIndex: the Bloom filter's and Count-Min's
// k-location loops mix the key once and call hashing.Locate themselves;
// they must touch exactly the cells the family's cold Index names — the
// ones a SHE kernel with the same seed touches.
func TestLocationLoopsMatchIndex(t *testing.T) {
	for _, k := range []int{1, 4, 8} {
		bf := NewBloomFilter(1000, k, 3)
		cm := NewCountMin(777, k, 3)
		want := map[int]uint32{}
		for key := uint64(0); key < 50; key++ {
			bf.Insert(key)
			cm.Insert(key)
			for i := 0; i < k; i++ {
				if !bf.bits.Get(bf.fam.index(i, key, 1000)) {
					t.Fatalf("k=%d key %d: bloom bit of function %d not set", k, key, i)
				}
				want[cm.fam.index(i, key, 777)]++
			}
		}
		if got := bf.bits.Ones(); got > 50*k {
			t.Fatalf("k=%d: %d bits set by %d locations", k, got, 50*k)
		}
		for j, v := range cm.counters {
			if v != want[j] {
				t.Fatalf("k=%d: counter %d = %d, the cold Index loop gives %d", k, j, v, want[j])
			}
		}
	}
}
