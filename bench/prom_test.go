package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func golden(t *testing.T) promSnap {
	t.Helper()
	f, err := os.Open("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func near(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-3*math.Abs(want) {
		t.Errorf("%s = %g, want %g", what, got, want)
	}
}

// The capture is a real scrape of shed with every telemetry layer on.
func TestParsePromGolden(t *testing.T) {
	snap := golden(t)
	for series, want := range map[string]float64{
		"she_batch_keys_total":                              13000,
		`she_command_seconds_count{verb="MINSERT"}`:         400,
		`she_command_seconds_sum{verb="SKETCH.CREATE"}`:     0.003056723,
		"she_wal_fsync_seconds_count":                       603,
		`she_sketch_window{sketch="c"}`:                     1.048576e+06,
		`she_wal_fsync_seconds_bucket{le="+Inf"}`:           603,
		`she_go_sched_latency_seconds_bucket{le="6.4e-08"}`: 413,
		`she_audit_observations_total{sketch="b"}`:          117,
		"she_go_heap_allocs_by_size_bytes_count":            18993,
		`she_config_info{wal="on",audit_sample="0.01",trace_sample="4",traffic_sample="16",max_memory_bytes="0"}`: 1,
	} {
		if got, ok := snap[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if got := snap.sumPrefix("she_audit_observations_total"); got != 234 {
		t.Errorf("sum of she_audit_observations_total = %v, want 117+117+0", got)
	}
	if _, err := parseProm(strings.NewReader("she_x{a=\"b\"}\n")); err == nil {
		t.Error("a sample without a value must not parse")
	}
}

// Quantiles worked by hand from the capture's buckets: shed's duration
// buckets end at 2^i-1 ns and start at half that.
func TestHistogramQuantilesGolden(t *testing.T) {
	snap := golden(t)
	fsync := snap.hist("she_wal_fsync_seconds", "")
	if fsync.count() != 603 || fsync.sum != 0.172545705 {
		t.Fatalf("fsync histogram: count %v sum %v", fsync.count(), fsync.sum)
	}
	// rank 301.5 of 603 lies in the first listed bucket (374 up to
	// 262143 ns), which starts at 131071.5 ns.
	near(t, "fsync p50", fsync.quantile(0.5, true), 131071.5e-9+131071.5e-9*301.5/374)
	// rank 596.97 lies in (524287, 1048575] ns, which holds 597-591.
	near(t, "fsync p99", fsync.quantile(0.99, true), 524287.5e-9+524287.5e-9*(596.97-591)/6)
	minsert := snap.hist("she_command_seconds", `verb="MINSERT"`)
	// rank 200 of 400: 199 lie at or under 32767 ns, the next listed
	// bucket ends at 65535 ns and holds 95.
	near(t, "MINSERT p50", minsert.quantile(0.5, true), 32767.5e-9+32767.5e-9*1/95)
	// The Go runtime's buckets are irregular; a bucket is taken to
	// start at the bound listed before it.
	sched := snap.hist("she_go_sched_latency_seconds", "")
	near(t, "sched p50", sched.quantile(0.5, false), 6.4e-08*227.5/413)
	if (promHist{}).quantile(0.5, true) != 0 {
		t.Error("an empty histogram must report 0")
	}
}

// Two scrapes need not list the same bounds: shed prints only buckets
// that hold something.
func TestHistogramDelta(t *testing.T) {
	parse := func(text string) promSnap {
		s, err := parseProm(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := parse(`h_bucket{le="0.000262143"} 10
h_bucket{le="+Inf"} 10
h_sum 0.002
h_count 10
`)
	after := parse(`h_bucket{le="0.000131071"} 4
h_bucket{le="0.000262143"} 20
h_bucket{le="0.001048575"} 30
h_bucket{le="+Inf"} 30
h_sum 0.012
h_count 30
`)
	d := after.hist("h", "").sub(before.hist("h", ""))
	if d.count() != 20 {
		t.Fatalf("delta count = %v, want 20", d.count())
	}
	near(t, "delta sum", d.sum, 0.010)
	// In the interval: 4 up to 131071 ns, 6 more up to 262143, 10 more
	// up to 1048575. The median, rank 10, is the top of the second.
	near(t, "delta p50", d.quantile(0.5, true), 262143e-9)
	near(t, "delta p75", d.quantile(0.75, true), 524287.5e-9+524287.5e-9*5/10)
}
