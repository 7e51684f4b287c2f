package hashing

import (
	"testing"
	"testing/quick"
)

func TestNewFamilyPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewFamily(0, 1)
}

func TestFamilyIndependentFunctions(t *testing.T) {
	f := NewFamily(8, 99)
	key := uint64(123456)
	seen := map[uint64]bool{}
	for i := 0; i < f.K(); i++ {
		h := f.Hash(i, key)
		if seen[h] {
			t.Fatalf("functions %d collide on key", i)
		}
		seen[h] = true
	}
}

func TestFamilyDeterministicAcrossInstances(t *testing.T) {
	a := NewFamily(4, 7)
	b := NewFamily(4, 7)
	for i := 0; i < 4; i++ {
		if a.Hash(i, 42) != b.Hash(i, 42) {
			t.Fatalf("function %d differs between same-seed families", i)
		}
	}
}

func TestReduceRangeBounds(t *testing.T) {
	if err := quick.Check(func(h uint64, n uint16) bool {
		m := int(n)%1000 + 1
		r := ReduceRange(h, m)
		return r >= 0 && r < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceRangeCoversRange(t *testing.T) {
	// With many hashes every slot of a small range should be hit.
	const n = 16
	hit := make([]bool, n)
	f := NewFamily(1, 5)
	for k := uint64(0); k < 4096; k++ {
		hit[f.Index(0, k, n)] = true
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("slot %d never hit by 4096 hashes", i)
		}
	}
}

func TestReduceRangePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	ReduceRange(1, 0)
}

// TestReduceRangeUniform checks the multiply-shift reduction does not
// systematically favor low or high slots.
func TestReduceRangeUniform(t *testing.T) {
	const n = 10
	counts := make([]int, n)
	f := NewFamily(1, 11)
	const trials = 100000
	for k := uint64(0); k < trials; k++ {
		counts[f.Index(0, k, n)]++
	}
	mean := float64(trials) / n
	for i, c := range counts {
		if float64(c) < 0.9*mean || float64(c) > 1.1*mean {
			t.Fatalf("slot %d got %d of %d (expected about %.0f)", i, c, trials, mean)
		}
	}
}

// TestFamilyGoldenVectors pins Hash and Index outputs: every sketch
// snapshot depends on Index never drifting within a position scheme,
// and MinHash signatures, HLL ranks and shard routing on Hash and
// Mix64. The Hash values were recorded before the family began storing
// Mix64(seed_i) and have not moved since; the Index values are position
// scheme 2's (Locate), recorded by the commit that introduced it — a
// change to them is a new scheme and a new snapshot magic in core.
func TestFamilyGoldenVectors(t *testing.T) {
	for _, g := range []struct {
		k      int
		master uint64
		i      int
		key    uint64
		hash   uint64
		index  int // Index(i, key, 524288)
	}{
		{8, 0x1, 0, 0x0, 0xb18a02f46d8d86c3, 260171},
		{8, 0x1, 0, 0x123456789abcdef, 0x4f2af462e2f78fa1, 484588},
		{8, 0x1, 0, 0xffffffffffffffff, 0x7badd00087a239ee, 380964},
		{8, 0x1, 1, 0x0, 0x63a5277110f4425, 3084},
		{8, 0x1, 3, 0x123456789abcdef, 0xf857266fdafa5f11, 291778},
		{8, 0x1, 5, 0xffffffffffffffff, 0x23a065a52b561915, 134184},
		{8, 0x1, 7, 0x0, 0xb95de140abef842a, 455416},
		{8, 0x1, 7, 0x123456789abcdef, 0xf3c7fc878c63a47d, 500742},
		{8, 0x1, 7, 0xffffffffffffffff, 0xb88f647a1b644814, 437197},
		{2, 0x0, 0, 0x0, 0x238275bc38fcbe91, 79336},
		{2, 0x0, 0, 0x123456789abcdef, 0x5774ed35627e870b, 467265},
		{2, 0x0, 1, 0x0, 0x80abe802ac1e182e, 11910},
		{2, 0x0, 1, 0xffffffffffffffff, 0x83aa265d37edb13a, 27851},
		{3, 0xdeadbeefcafef00d, 0, 0x0, 0x411d1fa3cdf5b0fd, 90629},
		{3, 0xdeadbeefcafef00d, 1, 0x123456789abcdef, 0x357b7a29832839e2, 155882},
		{3, 0xdeadbeefcafef00d, 2, 0xffffffffffffffff, 0x526266cc0d68ab83, 99897},
	} {
		f := NewFamily(g.k, g.master)
		if got := f.Hash(g.i, g.key); got != g.hash {
			t.Errorf("NewFamily(%d, %#x).Hash(%d, %#x) = %#x, want %#x", g.k, g.master, g.i, g.key, got, g.hash)
		}
		if got := f.Index(g.i, g.key, 524288); got != g.index {
			t.Errorf("NewFamily(%d, %#x).Index(%d, %#x, 524288) = %d, want %d", g.k, g.master, g.i, g.key, got, g.index)
		}
	}
}
