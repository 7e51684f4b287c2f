package bitpack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackedRoundTripAllWidths(t *testing.T) {
	for width := uint(1); width <= 64; width++ {
		p := NewPacked(67, width) // straddles word boundaries for most widths
		rng := rand.New(rand.NewSource(int64(width)))
		want := make([]uint64, 67)
		for i := range want {
			want[i] = rng.Uint64() & p.Max()
			p.Set(i, want[i])
		}
		for i, w := range want {
			if got := p.Get(i); got != w {
				t.Fatalf("width %d: counter %d = %d, want %d", width, i, got, w)
			}
		}
	}
}

func TestPackedSetDoesNotDisturbNeighbors(t *testing.T) {
	p := NewPacked(100, 5)
	for i := 0; i < 100; i++ {
		p.Set(i, uint64(i)%32)
	}
	p.Set(50, 31)
	for i := 0; i < 100; i++ {
		want := uint64(i) % 32
		if i == 50 {
			want = 31
		}
		if got := p.Get(i); got != want {
			t.Fatalf("counter %d = %d, want %d after setting neighbor", i, got, want)
		}
	}
}

func TestPackedTruncatesToWidth(t *testing.T) {
	p := NewPacked(4, 3)
	p.Set(1, 0xFF)
	if got := p.Get(1); got != 7 {
		t.Fatalf("Set(0xFF) into 3-bit counter read back %d, want 7", got)
	}
}

func TestPackedAddSat(t *testing.T) {
	p := NewPacked(4, 4) // max 15
	p.AddSat(0, 10)
	if got := p.Get(0); got != 10 {
		t.Fatalf("AddSat from 0: got %d, want 10", got)
	}
	p.AddSat(0, 4)
	if got := p.Get(0); got != 14 {
		t.Fatalf("AddSat accumulate: got %d, want 14", got)
	}
	p.AddSat(0, 1)
	if got := p.Get(0); got != 15 {
		t.Fatalf("AddSat to exactly max: got %d, want 15", got)
	}
	p.AddSat(0, 1)
	if got := p.Get(0); got != 15 {
		t.Fatalf("AddSat past max must saturate: got %d, want 15", got)
	}
	p.AddSat(1, 100)
	if got := p.Get(1); got != 15 {
		t.Fatalf("AddSat with huge delta must saturate: got %d, want 15", got)
	}
}

func TestPackedResetRange(t *testing.T) {
	p := NewPacked(64, 5)
	for i := 0; i < 64; i++ {
		p.Set(i, 17)
	}
	p.ResetRange(10, 20)
	for i := 0; i < 64; i++ {
		want := uint64(17)
		if i >= 10 && i < 20 {
			want = 0
		}
		if got := p.Get(i); got != want {
			t.Fatalf("counter %d = %d, want %d", i, got, want)
		}
	}
}

func TestPackedPanicsOnBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		n     int
		width uint
	}{{0, 5}, {-1, 5}, {4, 0}, {4, 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewPacked(%d,%d) did not panic", tc.n, tc.width)
				}
			}()
			NewPacked(tc.n, tc.width)
		}()
	}
}

func TestPackedQuickRoundTrip(t *testing.T) {
	p := NewPacked(257, 24)
	if err := quick.Check(func(idx uint16, v uint64) bool {
		i := int(idx) % 257
		p.Set(i, v)
		return p.Get(i) == v&p.Max()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackedMemoryBits(t *testing.T) {
	p := NewPacked(100, 5)
	if got := p.MemoryBits(); got != 500 {
		t.Fatalf("MemoryBits=%d, want 500", got)
	}
}

func TestPackedReset(t *testing.T) {
	p := NewPacked(10, 8)
	for i := 0; i < 10; i++ {
		p.Set(i, 200)
	}
	p.Reset()
	for i := 0; i < 10; i++ {
		if p.Get(i) != 0 {
			t.Fatalf("counter %d nonzero after Reset", i)
		}
	}
}
