package obs

import (
	"io"
	"strconv"
	"strings"
)

// PromWriter emits Prometheus text exposition format (version 0.0.4).
// It holds both of the format's rules so its callers hold neither: each
// family's samples come out together under one # TYPE line, whatever
// order they were written in, and label values are escaped here, once.
// A caller writes a subject's samples where it visits the subject, then
// calls Flush. Durations are exposed in seconds, per Prometheus
// convention.
//
// Labels are passed as name, value pairs; a value is raw — the writer
// escapes `\`, `"` and newline, the three bytes 0.0.4 escapes.
type PromWriter struct {
	w     io.Writer
	fams  map[string]*promFamily
	order []*promFamily // in the order each family was first written
}

type promFamily struct {
	name, kind string
	body       []byte
}

// NewPromWriter returns a writer whose Flush emits to w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, fams: make(map[string]*promFamily)}
}

// Flush writes every family written so far, in the order each was
// first written, each under its one # TYPE line.
func (p *PromWriter) Flush() error {
	var out []byte
	for _, f := range p.order {
		out = append(out, "# TYPE "+f.name+" "+f.kind+"\n"...)
		out = append(out, f.body...)
	}
	_, err := p.w.Write(out)
	return err
}

func (p *PromWriter) family(name, kind string) *promFamily {
	f := p.fams[name]
	if f == nil {
		f = &promFamily{name: name, kind: kind}
		p.fams[name] = f
		p.order = append(p.order, f)
	}
	return f
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample appends one sample line, name{labels} value, to the family.
func (f *promFamily) sample(name, value string, labels []string) {
	b := append(f.body, name...)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(b, labels[i]+`="`+labelEscaper.Replace(labels[i+1])+`"`...)
	}
	if len(labels) > 1 {
		b = append(b, '}')
	}
	f.body = append(append(append(b, ' '), value...), '\n')
}

func formatVal(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Gauge writes one gauge sample.
func (p *PromWriter) Gauge(name string, v float64, labels ...string) {
	p.family(name, "gauge").sample(name, formatVal(v), labels)
}

// Counter writes one counter sample.
func (p *PromWriter) Counter(name string, v float64, labels ...string) {
	p.family(name, "counter").sample(name, formatVal(v), labels)
}

// Untyped writes one untyped sample — for values that are sometimes a
// running total and sometimes a level (a Counter doubles as a
// gauge), where claiming either type would be a lie.
func (p *PromWriter) Untyped(name string, v float64, labels ...string) {
	p.family(name, "untyped").sample(name, formatVal(v), labels)
}

// Histogram writes one histogram series set: cumulative _bucket
// samples with `le` edges in seconds, then _sum and _count. Empty
// buckets are elided (the +Inf bucket always appears), which keeps an
// idle verb to a single _bucket line.
func (p *PromWriter) Histogram(name string, s HistSnapshot, labels ...string) {
	p.HistogramEdges(name, secondsEdges, s.Buckets[:], float64(s.SumNs)/1e9, labels...)
}

// secondsEdges are Histogram's bucket edges in seconds.
var secondsEdges = func() []float64 {
	edges := make([]float64, numBuckets)
	for i := range edges {
		edges[i] = float64(BucketUpperNs(i)) / 1e9
	}
	return edges
}()

// HistogramEdges writes one histogram series set whose bucket edges
// are supplied by the caller — for dimensionless quantities such as
// relative error, where the nanosecond-based Histogram edges make no
// sense. counts[i] holds the observations in (edges[i-1], edges[i]];
// counts[len(edges)] is the overflow bucket. Empty buckets are elided
// like Histogram's; the +Inf bucket always appears.
func (p *PromWriter) HistogramEdges(name string, edges []float64, counts []uint64, sum float64, labels ...string) {
	f := p.family(name, "histogram")
	var cum, total uint64
	for _, n := range counts {
		total += n
	}
	le := append(labels[:len(labels):len(labels)], "le", "")
	for i, n := range counts {
		if i >= len(edges) {
			break // overflow bucket is covered by +Inf
		}
		if n == 0 {
			continue
		}
		cum += n
		le[len(le)-1] = formatVal(edges[i])
		f.sample(name+"_bucket", strconv.FormatUint(cum, 10), le)
	}
	le[len(le)-1] = "+Inf"
	f.sample(name+"_bucket", strconv.FormatUint(total, 10), le)
	f.sample(name+"_sum", formatVal(sum), labels)
	f.sample(name+"_count", strconv.FormatUint(total, 10), labels)
}
