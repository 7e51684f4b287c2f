package main

import "testing"

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want string
	}{{50, ""}, {99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p999"}, {64000, "p999"}, {100000, "p9999"}, {5000000, "p9999"}} {
		_, label, ok := pickTail(c.n)
		if label != c.want || ok != (c.want != "") {
			t.Errorf("pickTail(%d) = %q, want %q: the highest percentile with ten samples beyond it", c.n, label, c.want)
		}
	}
}

func TestDistQuantiles(t *testing.T) {
	var d dist
	// 1..1000 ms once each, added out of order and partly as weights.
	for v := 1000; v >= 1; v-- {
		d.add(int64(v)*1e6, 1)
	}
	if got := d.quantile(0.5); got != 500e6 {
		t.Errorf("median = %d", got)
	}
	if got := d.quantile(0.99); got != 990e6 {
		t.Errorf("p99 = %d", got)
	}
	tm := d.timing()
	if tm.N != 1000 || tm.P50 != 500 || tm.TailLabel != "p99" || tm.Tail != 990 {
		t.Errorf("timing = %+v, want median 500 and p99 990 over 1000 samples", tm)
	}

	// A chunk of 64 replies is one entry of weight 64.
	var w dist
	w.add(2e6, 64)
	w.add(1e6, 64)
	w.add(9e6, 2)
	if w.n != 130 || w.quantile(0.5) != 2e6 || w.quantile(0.49) != 1e6 || w.quantile(0.99) != 9e6 {
		t.Errorf("weighted: n=%d p49=%d p50=%d p99=%d", w.n, w.quantile(0.49), w.quantile(0.5), w.quantile(0.99))
	}
	var m dist
	m.merge(&w)
	m.merge(&d)
	if m.n != 1130 || m.max() != 1000e6 {
		t.Errorf("merge: n=%d max=%d", m.n, m.max())
	}
	if (&dist{}).quantile(0.5) != 0 {
		t.Error("empty dist must report 0")
	}
}
