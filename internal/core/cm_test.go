package core

import (
	"math/rand"
	"testing"

	"she/internal/exact"
	"she/internal/metrics"
)

func cmConfig(n uint64) WindowConfig {
	return WindowConfig{N: n, Alpha: 1, Seed: 4}
}

func TestCMNeverUnderestimatesInWindow(t *testing.T) {
	// The paper's §4.4 invariant: ignoring young counters preserves
	// Count-Min's one-sided (never-underestimate) error for in-window
	// items, except when every hashed counter is young (the documented
	// fallback).
	const N = 2048
	cm, err := NewCM(1<<14, 64, 8, 32, cmConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	win := exact.NewWindow(N)
	rng := rand.New(rand.NewSource(12))
	underestimates, checks := 0, 0
	for i := 0; i < 12*N; i++ {
		k := uint64(rng.Intn(300))
		cm.Insert(k)
		win.Push(k)
		if i%53 == 0 && i > N {
			probe := uint64(rng.Intn(300))
			truth := win.Frequency(probe)
			if truth == 0 {
				continue
			}
			checks++
			if cm.EstimateFrequency(probe) < truth {
				underestimates++
			}
		}
	}
	if checks == 0 {
		t.Fatal("no checks performed")
	}
	// The all-young fallback fires with probability (N/T)^k = 2^-8.
	if rate := float64(underestimates) / float64(checks); rate > 0.02 {
		t.Fatalf("underestimate rate %.4f over %d checks; should be ≲(1/2)^8", rate, checks)
	}
}

func TestCMAccuracyOnSkewedStream(t *testing.T) {
	const N = 4096
	cm, err := NewCM(1<<15, 64, 8, 32, cmConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	win := exact.NewWindow(N)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8*N; i++ {
		// Zipf-ish: low keys hot.
		k := uint64(rng.Intn(rng.Intn(500) + 1))
		cm.Insert(k)
		win.Push(k)
	}
	var are metrics.AREAccumulator
	win.Distinct(func(k uint64, truth uint64) {
		are.Add(float64(truth), float64(cm.EstimateFrequency(k)))
	})
	if are.Value() > 1.5 {
		t.Fatalf("ARE %.3f too high for a comfortably sized sketch", are.Value())
	}
}

func TestCMExpiresOldCounts(t *testing.T) {
	const N = 1024
	cm, err := NewCM(1<<14, 64, 8, 32, cmConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	// Hammer one key, then stop and run other traffic for many cycles.
	for i := 0; i < 5000; i++ {
		cm.Insert(77)
	}
	for i := 0; i < 10*int(cmConfig(N).Tcycle()); i++ {
		cm.Insert(uint64(1000 + i%200))
	}
	if got := cm.EstimateFrequency(77); got > 100 {
		t.Fatalf("expired key still estimated at %d", got)
	}
}

func TestCMRejectsBadParameters(t *testing.T) {
	cfg := cmConfig(100)
	if _, err := NewCM(0, 64, 8, 32, cfg); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewCM(64, 0, 8, 32, cfg); err == nil {
		t.Fatal("w=0 accepted")
	}
	if _, err := NewCM(64, 8, 0, 32, cfg); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Counters are 32-bit cells; the width parameter names that and
	// nothing else.
	for _, width := range []uint{0, 3, 8, 16, 24, 64, 65} {
		if _, err := NewCM(64, 8, 2, width, cfg); err == nil {
			t.Fatalf("width=%d accepted", width)
		}
	}
}

func TestCMUnknownKeyLowEstimate(t *testing.T) {
	cm, err := NewCM(1<<14, 64, 4, 32, cmConfig(1024))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		cm.Insert(uint64(i % 100))
	}
	if got := cm.EstimateFrequency(123456789); got > 10 {
		t.Fatalf("never-inserted key estimated at %d", got)
	}
}

func TestCMSaturatingWidth(t *testing.T) {
	// A 32-bit counter saturates at 2³²−1 instead of wrapping, in the
	// served-geometry loop (w = 64) and the general one (w = 8).
	for _, w := range []int{64, 8} {
		cm, err := NewCM(64, w, 1, 32, cmConfig(1000))
		if err != nil {
			t.Fatal(err)
		}
		cm.Insert(9) // cleans the key's group, so the preset survives
		for i := range cm.cells {
			if cm.cells[i] != 0 {
				cm.cells[i] = 1<<32 - 2
			}
		}
		for i := 0; i < 3; i++ {
			cm.Insert(9)
		}
		if got := cm.EstimateFrequency(9); got != 1<<32-1 {
			t.Fatalf("w=%d: saturating counter reads %d, want %d", w, got, uint64(1<<32-1))
		}
	}
}
