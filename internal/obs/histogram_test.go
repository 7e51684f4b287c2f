package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramZeroObservations(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.SumNs != 0 || s.MaxNs != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if s.Mean() != 0 {
		t.Errorf("empty Mean = %v", s.Mean())
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(1500 * time.Nanosecond)
	s := h.Snapshot()
	if s.Count != 1 || s.SumNs != 1500 || s.MaxNs != 1500 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Every quantile of a single observation lies within its bucket
	// [1024, 2048) and never exceeds the recorded max.
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		v := s.Quantile(q)
		if v < 1024 || v > 1500 {
			t.Errorf("Quantile(%v) = %v, want in [1024, 1500]", q, v)
		}
	}
	if got := s.Quantile(1); got != 1500 {
		t.Errorf("Quantile(1) = %v, want exact max 1500", got)
	}
}

func TestHistogramBeyondTopBucket(t *testing.T) {
	var h Histogram
	// The largest possible duration (2^63−1 ns ≈ 292 years) lands in
	// the top reachable bucket without panicking or wrapping; bucket 64
	// exists only so a raw uint64 with the top bit set would also fit.
	huge := time.Duration(math.MaxInt64)
	h.Observe(huge)
	h.Observe(-time.Second) // negative clamps to zero, bucket 0
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[63] != 1 {
		t.Fatalf("top bucket = %d, want 1", s.Buckets[63])
	}
	if s.Buckets[0] != 1 {
		t.Fatalf("zero bucket = %d, want 1", s.Buckets[0])
	}
	if s.MaxNs != uint64(huge) {
		t.Fatalf("max = %d, want %d", s.MaxNs, uint64(huge))
	}
	if got := s.Quantile(1); got != float64(uint64(huge)) {
		t.Fatalf("Quantile(1) = %v", got)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	var h Histogram
	// A spread of magnitudes so quantiles cross several buckets.
	for i := 1; i <= 10000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	prev := -1.0
	for _, q := range qs {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v (not monotone)", q, v, prev)
		}
		prev = v
	}
	p50, p90, p99 := s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99)
	max := float64(s.MaxNs)
	if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
		t.Fatalf("p50=%v p90=%v p99=%v max=%v not ordered", p50, p90, p99, max)
	}
	// Log-bucket resolution is 2x; interpolated quantiles should land
	// within a factor of 2 of the exact values.
	if p50 < 2.5e6 || p50 > 10e6 {
		t.Errorf("p50 = %v ns, want ≈5e6 within 2x", p50)
	}
	if p99 < 4.95e6 || p99 > 19.8e6 {
		t.Errorf("p99 = %v ns, want ≈9.9e6 within 2x", p99)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var inBuckets uint64
	for _, n := range s.Buckets {
		inBuckets += n
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket sum %d != count %d", inBuckets, s.Count)
	}
	if want := uint64(goroutines*perG - 1); s.MaxNs != want {
		t.Fatalf("max = %d, want %d", s.MaxNs, want)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

// TestLocalHistFlushEquivalence pins the batching contract: a set of
// durations recorded through a LocalHist and flushed must produce
// exactly the snapshot that direct Observe calls would.
func TestLocalHistFlushEquivalence(t *testing.T) {
	durations := []time.Duration{0, -5, 1, 2, 3, 100, 1023, 1024, 1 << 30, 7 * time.Second}
	direct := &Histogram{}
	batched := &Histogram{}
	var l LocalHist
	for _, d := range durations {
		direct.Observe(d)
		l.Observe(d)
	}
	if got, want := l.Count(), uint64(len(durations)); got != want {
		t.Fatalf("Count() = %d, want %d", got, want)
	}
	l.Flush(batched)
	if l.Count() != 0 {
		t.Fatalf("Count() after flush = %d, want 0", l.Count())
	}
	if got, want := batched.Snapshot(), direct.Snapshot(); got != want {
		t.Fatalf("batched snapshot %+v != direct %+v", got, want)
	}
	// A second flush with nothing accumulated must not disturb the target.
	l.Flush(batched)
	if got, want := batched.Snapshot(), direct.Snapshot(); got != want {
		t.Fatalf("empty flush changed snapshot: %+v != %+v", got, want)
	}
}

// TestLocalHistMaxMerge checks that flushing a smaller batch max does
// not regress the shared histogram's max.
func TestLocalHistMaxMerge(t *testing.T) {
	h := &Histogram{}
	h.Observe(time.Second)
	var l LocalHist
	l.Observe(time.Millisecond)
	l.Flush(h)
	if got := h.Snapshot().MaxNs; got != uint64(time.Second) {
		t.Fatalf("MaxNs = %d, want %d", got, uint64(time.Second))
	}
	l.Observe(2 * time.Second)
	l.Flush(h)
	if got := h.Snapshot().MaxNs; got != uint64(2*time.Second) {
		t.Fatalf("MaxNs = %d, want %d", got, uint64(2*time.Second))
	}
}

// TestLocalHistNilTarget: flushing into a nil histogram drops the batch
// but still resets the accumulator.
func TestLocalHistNilTarget(t *testing.T) {
	var l LocalHist
	l.Observe(time.Millisecond)
	l.Flush(nil)
	if l.Count() != 0 {
		t.Fatalf("Count() after nil flush = %d, want 0", l.Count())
	}
}
