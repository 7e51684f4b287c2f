// Package obs is shed's observability layer: latency histograms,
// a slow-query ring log, and Prometheus text exposition. Everything on
// a hot path is lock-free — recording an observation is a handful of
// atomic adds with no allocation, or plain arithmetic when batched
// through a single-writer LocalHist — so instrumentation can stay
// enabled in production without distorting the numbers it reports.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is one bucket per possible bit length of a uint64
// nanosecond value: bucket 0 holds zeros, bucket i (i ≥ 1) holds values
// in [2^(i-1), 2^i). Power-of-two edges make Observe a single
// bits.Len64 — no search, no float math — at the cost of ≤2×
// quantile resolution, which linear interpolation inside the bucket
// reduces far below that in practice.
const numBuckets = 65

// Histogram is a log-bucketed latency histogram safe for concurrent
// use. Observe is wait-free (atomic adds plus one CAS loop for the
// max) and allocation-free; Snapshot copies the buckets out for
// quantile computation and exposition. The zero value is ready to use,
// and a nil *Histogram ignores observations, so call sites need no
// enabled-checks.
type Histogram struct {
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [numBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations count as zero.
// There is deliberately no separate count field: the total is the sum
// of the bucket counts, computed at Snapshot time, which saves one
// atomic add per observation on the hot path.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram. Buckets are
// copied individually, not atomically as a set, so a snapshot taken
// during concurrent Observes may be off by in-flight observations —
// fine for monitoring, never torn within one bucket.
type HistSnapshot struct {
	Count   uint64
	SumNs   uint64
	MaxNs   uint64
	Buckets [numBuckets]uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.SumNs = h.sum.Load()
	s.MaxNs = h.max.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// bucketBounds returns the value range [lo, hi) covered by bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 1
	}
	lo = uint64(1) << (i - 1)
	if i == numBuckets-1 {
		return lo, math.MaxUint64
	}
	return lo, uint64(1) << i
}

// BucketUpperNs returns the inclusive upper bound of bucket i in
// nanoseconds (2^i − 1): every value in buckets 0..i is ≤ it, which is
// exactly the cumulative-count contract of a Prometheus `le` edge.
func BucketUpperNs(i int) uint64 {
	if i >= 64 {
		return math.MaxUint64
	}
	return uint64(1)<<i - 1
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in nanoseconds by
// linear interpolation inside the covering bucket. With no
// observations it returns 0; q=1 returns the exact max. Estimates are
// monotone in q and never exceed the recorded max.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		return float64(s.MaxNs)
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(n)
			v := float64(lo) + frac*float64(hi-lo)
			if m := float64(s.MaxNs); v > m {
				v = m
			}
			return v
		}
		cum = next
	}
	return float64(s.MaxNs)
}

// Mean returns the mean observation in nanoseconds (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}

// LocalHist is a single-goroutine accumulator in front of a shared
// Histogram: Observe is plain arithmetic (no LOCK-prefixed atomics, the
// dominant cost of concurrent Observe on a shared histogram), and Flush
// merges the batch into the shared histogram with one atomic add per
// touched bucket. The owner flushes at its natural quiet points (batch
// drain, connection close) and at least every FlushLimit observations,
// so a scrape lags the truth by at most one in-flight batch. Not safe
// for concurrent use — that is the whole point.
type LocalHist struct {
	count   uint64
	sum     uint64 // nanoseconds
	max     uint64 // nanoseconds
	buckets [numBuckets]uint32
}

// FlushLimit is the observation count at which a LocalHist owner must
// flush: it bounds both scrape staleness and the uint32 bucket
// counters (which overflow only past 2^32 unflushed observations).
const FlushLimit = 4096

// Observe records one duration. Negative durations count as zero.
func (l *LocalHist) Observe(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	l.count++
	l.sum += v
	if v > l.max {
		l.max = v
	}
	l.buckets[bits.Len64(v)]++
}

// Count reports the observations accumulated since the last Flush.
func (l *LocalHist) Count() uint64 { return l.count }

// Flush merges the accumulated batch into h and resets l. Flushing
// nothing, or into a nil histogram, is a no-op (the batch is dropped in
// the latter case, matching Histogram's nil-receiver contract).
func (l *LocalHist) Flush(h *Histogram) {
	if l.count == 0 {
		return
	}
	if h != nil {
		h.sum.Add(l.sum)
		for i := range l.buckets {
			if n := l.buckets[i]; n != 0 {
				h.buckets[i].Add(uint64(n))
			}
		}
		for {
			cur := h.max.Load()
			if l.max <= cur || h.max.CompareAndSwap(cur, l.max) {
				break
			}
		}
	}
	*l = LocalHist{}
}
