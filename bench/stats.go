package main

import (
	"fmt"
	"math"
	"sort"
)

// dist is a weighted sample set of durations in nanoseconds. A reply
// chunk that carries n replies with the same latency is one entry of
// weight n, so a closed-loop run at a million replies a second stays a
// few megabytes and percentiles are still exact.
type dist struct {
	ns     []int64
	weight []int32
	n      int64
	sorted bool
}

func (d *dist) add(ns int64, n int) {
	if n <= 0 {
		return
	}
	d.ns = append(d.ns, ns)
	d.weight = append(d.weight, int32(n))
	d.n += int64(n)
	d.sorted = false
}

func (d *dist) reset() {
	d.ns, d.weight, d.n, d.sorted = d.ns[:0], d.weight[:0], 0, false
}

func (d *dist) merge(o *dist) {
	d.ns = append(d.ns, o.ns...)
	d.weight = append(d.weight, o.weight...)
	d.n += o.n
	d.sorted = false
}

func (d *dist) Len() int           { return len(d.ns) }
func (d *dist) Less(i, j int) bool { return d.ns[i] < d.ns[j] }
func (d *dist) Swap(i, j int) {
	d.ns[i], d.ns[j] = d.ns[j], d.ns[i]
	d.weight[i], d.weight[j] = d.weight[j], d.weight[i]
}

// quantile returns the value below which a share q of the weight lies
// (nearest rank: the smallest value whose cumulative weight reaches
// ⌈q·n⌉). It returns 0 for an empty set.
func (d *dist) quantile(q float64) int64 {
	if d.n == 0 {
		return 0
	}
	if !d.sorted {
		sort.Sort(d)
		d.sorted = true
	}
	rank := int64(math.Ceil(q * float64(d.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, w := range d.weight {
		cum += int64(w)
		if cum >= rank {
			return d.ns[i]
		}
	}
	return d.ns[len(d.ns)-1]
}

func (d *dist) max() int64 {
	var m int64
	for _, v := range d.ns {
		if v > m {
			m = v
		}
	}
	return m
}

// tailPercentiles is the ladder the percentile picker climbs.
var tailPercentiles = []struct {
	q     float64
	label string
	one   int64 // one sample in this many lies beyond the percentile
}{{0.9, "p90", 10}, {0.99, "p99", 100}, {0.999, "p999", 1000}, {0.9999, "p9999", 10000}}

// pickTail returns the highest percentile of the ladder that still has
// at least ten samples beyond it: with fewer the figure is set by a
// handful of requests and does not repeat. ok is false when even p90
// has fewer than ten.
func pickTail(n int64) (q float64, label string, ok bool) {
	for _, p := range tailPercentiles {
		if n < 10*p.one {
			break
		}
		q, label, ok = p.q, p.label, true
	}
	return q, label, ok
}

// timing is how a duration metric is reported: its median, the picked
// tail percentile, and the sample count both rest on.
type timing struct {
	P50, Tail float64 // ms
	TailLabel string
	N         int64
}

func (d *dist) timing() timing {
	t := timing{N: d.n, P50: float64(d.quantile(0.5)) / 1e6}
	if q, label, ok := pickTail(d.n); ok {
		t.Tail, t.TailLabel = float64(d.quantile(q))/1e6, label
	}
	return t
}

func (t timing) String() string {
	if t.TailLabel == "" {
		return fmt.Sprintf("p50 %.4f ms (n=%d)", t.P50, t.N)
	}
	return fmt.Sprintf("p50 %.4f ms, %s %.4f ms (n=%d)", t.P50, t.TailLabel, t.Tail, t.N)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
