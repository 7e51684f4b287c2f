package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromWriter emits Prometheus text exposition format (version 0.0.4).
// Each metric family gets one # TYPE line the first time it is
// written; series of the same family written consecutively share it.
// Durations are exposed in seconds, per Prometheus convention.
type PromWriter struct {
	w     io.Writer
	typed map[string]bool
}

// NewPromWriter returns a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, typed: make(map[string]bool)}
}

func (p *PromWriter) typeLine(name, kind string) {
	if !p.typed[name] {
		p.typed[name] = true
		fmt.Fprintf(p.w, "# TYPE %s %s\n", name, kind)
	}
}

func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func formatVal(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Gauge writes one gauge sample. labels is a pre-rendered label list
// (`key="value"`, comma-separated) or "".
func (p *PromWriter) Gauge(name, labels string, v float64) {
	p.typeLine(name, "gauge")
	fmt.Fprintf(p.w, "%s %s\n", series(name, labels), formatVal(v))
}

// Counter writes one counter sample.
func (p *PromWriter) Counter(name, labels string, v float64) {
	p.typeLine(name, "counter")
	fmt.Fprintf(p.w, "%s %s\n", series(name, labels), formatVal(v))
}

// Untyped writes one untyped sample — for values that are sometimes a
// running total and sometimes a level (a Counter doubles as a
// gauge), where claiming either type would be a lie.
func (p *PromWriter) Untyped(name, labels string, v float64) {
	p.typeLine(name, "untyped")
	fmt.Fprintf(p.w, "%s %s\n", series(name, labels), formatVal(v))
}

// Histogram writes one histogram series set: cumulative _bucket
// samples with `le` edges in seconds, then _sum and _count. Empty
// trailing buckets are elided (the +Inf bucket always appears), which
// keeps an idle verb to a single _bucket line.
func (p *PromWriter) Histogram(name, labels string, s HistSnapshot) {
	p.typeLine(name, "histogram")
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		// Catch up the cumulative count at this bucket's edge; edges
		// for skipped empty buckets carry no extra information.
		cum += n
		le := formatVal(float64(BucketUpperNs(i)) / 1e9)
		fmt.Fprintf(p.w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	fmt.Fprintf(p.w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	fmt.Fprintf(p.w, "%s_sum%s %s\n", name, braced(labels), formatVal(float64(s.SumNs)/1e9))
	fmt.Fprintf(p.w, "%s_count%s %d\n", name, braced(labels), s.Count)
}

// HistogramEdges writes one histogram series set whose bucket edges
// are supplied by the caller — for dimensionless quantities such as
// relative error, where the nanosecond-based Histogram edges make no
// sense. counts[i] holds the observations in (edges[i-1], edges[i]];
// counts[len(edges)] is the overflow bucket. Empty trailing buckets
// are elided like Histogram; the +Inf bucket always appears.
func (p *PromWriter) HistogramEdges(name, labels string, edges []float64, counts []uint64, sum float64) {
	p.typeLine(name, "histogram")
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum, total uint64
	for _, n := range counts {
		total += n
	}
	for i, n := range counts {
		if i >= len(edges) {
			break // overflow bucket is covered by +Inf
		}
		if n == 0 {
			continue
		}
		cum += n
		fmt.Fprintf(p.w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatVal(edges[i]), cum)
	}
	fmt.Fprintf(p.w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, total)
	fmt.Fprintf(p.w, "%s_sum%s %s\n", name, braced(labels), formatVal(sum))
	fmt.Fprintf(p.w, "%s_count%s %d\n", name, braced(labels), total)
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabel escapes a label value for inclusion inside double
// quotes.
func EscapeLabel(v string) string { return labelEscaper.Replace(v) }
