package obs

import (
	"sync"
	"testing"
)

// TestSamplerDisabled pins the off-switch contract: with both rates at
// zero no line is sampled, nothing is counted and the tick stays put.
func TestSamplerDisabled(t *testing.T) {
	var s Sampler
	for i := 0; i < 1000; i++ {
		if trace, traffic := s.Line(); trace || traffic {
			t.Fatal("disabled sampler sampled a line")
		}
	}
	if s.Trace.Sampled() != 0 || s.Traffic.Sampled() != 0 || s.tick.Load() != 0 {
		t.Fatalf("disabled sampler moved: trace=%d traffic=%d tick=%d",
			s.Trace.Sampled(), s.Traffic.Sampled(), s.tick.Load())
	}
}

// TestSamplerRate checks the 1-in-N discipline per consumer: over M
// lines exactly M/N are sampled (the tick is a counter, not a coin),
// the count says so, and a consumer that is off samples nothing while
// the other is on.
func TestSamplerRate(t *testing.T) {
	var s Sampler
	s.Trace.Set(4)
	s.Traffic.Set(8)
	traced, fed := 0, 0
	for i := 0; i < 800; i++ {
		trace, traffic := s.Line()
		if trace {
			traced++
		}
		if traffic {
			fed++
		}
	}
	if traced != 200 || fed != 100 {
		t.Fatalf("sampled trace=%d traffic=%d of 800 at 1-in-4 and 1-in-8, want 200 and 100", traced, fed)
	}
	if s.Trace.Sampled() != 200 || s.Traffic.Sampled() != 100 {
		t.Fatalf("Sampled = %d, %d, want 200, 100", s.Trace.Sampled(), s.Traffic.Sampled())
	}

	s.Trace.Set(0)
	for i := 0; i < 80; i++ {
		if trace, _ := s.Line(); trace {
			t.Fatal("a consumer at rate 0 sampled a line")
		}
	}
	if s.Traffic.Sampled() != 110 {
		t.Fatalf("traffic Sampled = %d after 80 more lines, want 110", s.Traffic.Sampled())
	}
}

// TestSamplerTraceOneInN pins the tracer's cadence on its own: at
// 1-in-4 exactly 25 of 100 lines are traced and counted, and the
// traffic consumer, left off, samples none of them.
func TestSamplerTraceOneInN(t *testing.T) {
	var s Sampler
	s.Trace.Set(4)
	traced := 0
	for i := 0; i < 100; i++ {
		trace, traffic := s.Line()
		if traffic {
			t.Fatal("traffic sampled a line while off")
		}
		if trace {
			traced++
		}
	}
	if traced != 25 || s.Trace.Sampled() != 25 {
		t.Fatalf("traced %d of 100 at 1-in-4 (Sampled = %d), want 25", traced, s.Trace.Sampled())
	}
	if s.Traffic.Sampled() != 0 {
		t.Fatalf("traffic Sampled = %d while off, want 0", s.Traffic.Sampled())
	}
}

// TestSamplerEveryCommand pins rate 1: every line sampled.
func TestSamplerEveryCommand(t *testing.T) {
	var s Sampler
	s.Traffic.Set(1)
	for i := 0; i < 10; i++ {
		if _, traffic := s.Line(); !traffic {
			t.Fatalf("line %d unsampled at rate 1", i)
		}
	}
}

// TestSamplerRuntimeRate covers TRACE SAMPLE's use: a rate switched on,
// read back and switched off at runtime; a negative rate is off.
func TestSamplerRuntimeRate(t *testing.T) {
	var s Sampler
	if trace, _ := s.Line(); trace {
		t.Fatal("traced a line while off")
	}
	s.Trace.Set(1)
	if trace, _ := s.Line(); !trace || s.Trace.Every() != 1 {
		t.Fatalf("rate 1 set at runtime: traced=%v every=%d", trace, s.Trace.Every())
	}
	s.Trace.Set(-5)
	if trace, _ := s.Line(); trace || s.Trace.Every() != 0 {
		t.Fatalf("negative rate: traced=%v every=%d, want off", trace, s.Trace.Every())
	}
}

// TestSamplerConcurrent takes the decision from many goroutines at once
// (its value is under -race and on a 32-bit build): the shared tick
// still yields exactly ⌊n/N⌋ hits per consumer, and two consumers at
// the same rate hit the same lines.
func TestSamplerConcurrent(t *testing.T) {
	const (
		goroutines = 8
		lines      = 5000
		every      = 7
	)
	var s Sampler
	s.Trace.Set(every)
	s.Traffic.Set(every)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				if trace, traffic := s.Line(); trace != traffic {
					t.Error("equal rates disagreed on a line")
					return
				}
			}
		}()
	}
	wg.Wait()
	want := uint64(goroutines * lines / every)
	if s.Trace.Sampled() != want || s.Traffic.Sampled() != want {
		t.Fatalf("Sampled = %d, %d, want %d each", s.Trace.Sampled(), s.Traffic.Sampled(), want)
	}
}
