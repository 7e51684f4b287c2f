package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sampleLine matches one exposition sample: name, optional labels,
// a float value (including +Inf/NaN forms Go's 'g' never emits here).
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9].*$`)

// ValidateExposition asserts every line of a Prometheus text payload
// is either a comment or a well-formed sample. Shared with the server
// tests via the obs test package would be circular, so the server
// duplicates the regexp check loosely.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") && !strings.HasPrefix(line, "# HELP ") {
				t.Errorf("bad comment line %q", line)
			}
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("bad sample line %q", line)
		}
	}
}

func TestPromGaugeCounterUntyped(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Gauge("she_up", 1)
	p.Counter("she_ops_total", 42, "verb", "PING")
	p.Untyped("she_wal_bytes", 1024)
	p.Counter("she_ops_total", 7, "verb", "INFO") // joins its family
	p.Flush()
	out := b.String()
	validateExposition(t, out)
	if !strings.Contains(out, "# TYPE she_ops_total counter\n"+`she_ops_total{verb="PING"} 42`+"\n"+`she_ops_total{verb="INFO"} 7`+"\n") {
		t.Fatalf("family not kept together under one TYPE line:\n%s", out)
	}
	for _, want := range []string{
		"she_up 1\n",
		`she_ops_total{verb="PING"} 42` + "\n",
		"she_wal_bytes 1024\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPromHistogram(t *testing.T) {
	var h Histogram
	h.Observe(1 * time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Histogram("she_command_seconds", h.Snapshot(), "verb", "SKETCH.INSERT")
	p.Flush()
	out := b.String()
	validateExposition(t, out)
	if !strings.Contains(out, "# TYPE she_command_seconds histogram") {
		t.Fatalf("missing TYPE:\n%s", out)
	}
	if !strings.Contains(out, `she_command_seconds_bucket{verb="SKETCH.INSERT",le="+Inf"} 3`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `she_command_seconds_count{verb="SKETCH.INSERT"} 3`) {
		t.Fatalf("missing _count:\n%s", out)
	}
	// Cumulative bucket counts must be non-decreasing.
	prev := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		v, err := strconv.Atoi(line[strings.LastIndex(line, " ")+1:])
		if err != nil || v < prev {
			t.Fatalf("non-cumulative bucket line %q (prev %d)", line, prev)
		}
		prev = v
	}
}

// TestPromHistogramEdges pins the caller-supplied-edges histogram:
// cumulative buckets over the given (dimensionless) edges, elided
// zeros, overflow folded into +Inf only.
func TestPromHistogramEdges(t *testing.T) {
	edges := []float64{0.01, 0.1, 1}
	counts := []uint64{2, 0, 3, 1} // last = overflow
	var b strings.Builder
	p := NewPromWriter(&b)
	p.HistogramEdges("she_audit_rel_err", edges, counts, 4.5, "sketch", "m")
	p.Flush()
	out := b.String()
	validateExposition(t, out)
	for _, want := range []string{
		"# TYPE she_audit_rel_err histogram",
		`she_audit_rel_err_bucket{sketch="m",le="0.01"} 2`,
		`she_audit_rel_err_bucket{sketch="m",le="1"} 5`,
		`she_audit_rel_err_bucket{sketch="m",le="+Inf"} 6`,
		`she_audit_rel_err_sum{sketch="m"} 4.5`,
		`she_audit_rel_err_count{sketch="m"} 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The empty 0.1 bucket is elided.
	if strings.Contains(out, `le="0.1"`) {
		t.Errorf("empty bucket not elided:\n%s", out)
	}
}

func TestPromHistogramEdgesEmpty(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.HistogramEdges("she_audit_rel_err", []float64{1}, []uint64{0, 0}, 0)
	p.Flush()
	out := b.String()
	validateExposition(t, out)
	if !strings.Contains(out, `she_audit_rel_err_bucket{le="+Inf"} 0`) {
		t.Fatalf("empty edges histogram exposition:\n%s", out)
	}
}

func TestPromEmptyHistogram(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Histogram("she_idle_seconds", HistSnapshot{})
	p.Flush()
	out := b.String()
	validateExposition(t, out)
	if !strings.Contains(out, `she_idle_seconds_bucket{le="+Inf"} 0`) {
		t.Fatalf("empty histogram exposition:\n%s", out)
	}
}

// TestEscapeAndSanitize: a raw label value is escaped once, by the
// 0.0.4 rules — `"`, `\` and newline, nothing else.
func TestEscapeAndSanitize(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Gauge("she_x", 1, "replica", `1"2\3`+"\n4")
	p.Flush()
	if want := "# TYPE she_x gauge\n" + `she_x{replica="1\"2\\3\n4"} 1` + "\n"; b.String() != want {
		t.Fatalf("got %q, want %q", b.String(), want)
	}
	validateExposition(t, b.String())
}
