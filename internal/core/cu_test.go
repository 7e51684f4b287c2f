package core

import (
	"math/rand"
	"testing"

	"she/internal/exact"
	"she/internal/metrics"
)

func cuConfig(n uint64) WindowConfig {
	return WindowConfig{N: n, Alpha: 1, Seed: 57}
}

func TestCUAlmostNeverUnderestimates(t *testing.T) {
	const N = 2048
	cu, err := NewCU(1<<13, 64, 8, cuConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	win := exact.NewWindow(N)
	rng := rand.New(rand.NewSource(58))
	under, severe, checks := 0, 0, 0
	for i := 0; i < 14*N; i++ {
		k := uint64(rng.Intn(250))
		cu.Insert(k)
		win.Push(k)
		if i > 2*N && i%47 == 0 {
			probe := uint64(rng.Intn(250))
			truth := win.Frequency(probe)
			if truth == 0 {
				continue
			}
			checks++
			est := cu.EstimateFrequency(probe)
			if est < truth {
				under++
				if float64(truth-est) > 0.5*float64(truth) {
					severe++
				}
			}
		}
	}
	if checks == 0 {
		t.Fatal("no checks")
	}
	// The documented approximate one-sidedness: rare and small.
	if rate := float64(under) / float64(checks); rate > 0.03 {
		t.Fatalf("underestimate rate %.4f over %d checks", rate, checks)
	}
	// Severe misses can only come from the shared all-young fallback
	// ((N/Tcycle)^k = 2⁻⁸ per query), not from CU's increment starving,
	// which shaves at most a few counts.
	if rate := float64(severe) / float64(checks); rate > 0.015 {
		t.Fatalf("severe undercount rate %.4f exceeds the fallback probability", rate)
	}
}

func TestCUMoreAccurateThanCMUnderPressure(t *testing.T) {
	// The point of conservative update: with counters scarce, CU's ARE
	// is clearly below CM's for the same geometry and stream.
	const N = 4096
	const counters = 1 << 10 // deliberately tight
	cm, err := NewCM(counters, 64, 4, 32, cuConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	cu, err := NewCU(counters, 64, 4, cuConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	win := exact.NewWindow(N)
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 8*N; i++ {
		k := uint64(rng.Intn(600))
		cm.Insert(k)
		cu.Insert(k)
		win.Push(k)
	}
	var areCM, areCU metrics.AREAccumulator
	win.Distinct(func(k uint64, truth uint64) {
		areCM.Add(float64(truth), float64(cm.EstimateFrequency(k)))
		areCU.Add(float64(truth), float64(cu.EstimateFrequency(k)))
	})
	if areCU.Value() >= areCM.Value() {
		t.Fatalf("CU ARE %.3f not below CM ARE %.3f under pressure", areCU.Value(), areCM.Value())
	}
}

func TestCUExpiresOldCounts(t *testing.T) {
	const N = 1024
	cu, err := NewCU(1<<13, 64, 8, cuConfig(N))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		cu.Insert(88)
	}
	for i := 0; i < 10*int(cuConfig(N).Tcycle()); i++ {
		cu.Insert(uint64(1000 + i%200))
	}
	if got := cu.EstimateFrequency(88); got > 100 {
		t.Fatalf("expired key still estimated at %d", got)
	}
}

func TestCURejectsBadParameters(t *testing.T) {
	cfg := cuConfig(100)
	if _, err := NewCU(0, 64, 8, cfg); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewCU(64, 0, 8, cfg); err == nil {
		t.Fatal("w=0 accepted")
	}
	if _, err := NewCU(64, 8, 0, cfg); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewCU(64, 8, 4, WindowConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestCUTimeBased(t *testing.T) {
	cu, err := NewCU(4096, 64, 4, cuConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		cu.InsertAt(7, 1000+i)
	}
	if got := cu.EstimateFrequencyAt(7, 1100); got < 100 {
		t.Fatalf("time-based estimate %d below 100 insertions", got)
	}
	if got := cu.EstimateFrequencyAt(7, 1000+10*500); got > 20 {
		t.Fatalf("expired time-based estimate %d", got)
	}
}
