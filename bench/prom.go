package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// promSnap is one scrape of a Prometheus text exposition: every sample
// under its full series name, labels included and as written, such as
// `she_command_seconds_count{verb="MINSERT"}`.
type promSnap map[string]float64

// parseProm reads the text format (version 0.0.4) shed's /metrics
// serves. Comment lines are skipped; a sample line is `series value`
// with an optional timestamp after the value.
func parseProm(r io.Reader) (promSnap, error) {
	snap := promSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the last '}' if it has labels (a label
		// value may hold spaces), else at the first space.
		cut := strings.LastIndexByte(line, '}') + 1
		if cut == 0 {
			cut = strings.IndexByte(line, ' ')
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics: unparsable line %q", line)
		}
		f := strings.Fields(line[cut:])
		if len(f) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		snap[line[:cut]] = v
	}
	return snap, sc.Err()
}

func scrape(debugURL string) (promSnap, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(debugURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// sumPrefix adds up every series of a family whatever its labels.
func (s promSnap) sumPrefix(name string) float64 {
	var sum float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// promHist is the cumulative buckets of one histogram series.
type promHist struct {
	le  []float64 // upper bounds, ascending, +Inf last
	cum []float64
	sum float64
}

// hist collects `name_bucket{labels,le="…"}` of a scrape. labels is
// the series' other labels as written (`verb="MINSERT"`) or "". shed
// prints only the buckets that hold something, so two scrapes of one
// histogram need not list the same bounds.
func (s promSnap) hist(name, labels string) promHist {
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	prefix += `le="`
	var h promHist
	for k, v := range s {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		h.le = append(h.le, le)
		h.cum = append(h.cum, v)
	}
	sort.Sort(&h)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	h.sum = s[name+"_sum"+labels]
	return h
}

func (h *promHist) Len() int           { return len(h.le) }
func (h *promHist) Less(i, j int) bool { return h.le[i] < h.le[j] }
func (h *promHist) Swap(i, j int) {
	h.le[i], h.le[j] = h.le[j], h.le[i]
	h.cum[i], h.cum[j] = h.cum[j], h.cum[i]
}

// at returns the cumulative count at bound le: that of the largest
// listed bound not above it, since an unlisted bucket is an empty one.
func (h promHist) at(le float64) float64 {
	i := sort.SearchFloat64s(h.le, le)
	if i < len(h.le) && h.le[i] == le {
		return h.cum[i]
	}
	if i == 0 {
		return 0
	}
	return h.cum[i-1]
}

func (h promHist) count() float64 {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

// sub returns the histogram of what was observed between scrape
// before and scrape h.
func (h promHist) sub(before promHist) promHist {
	bounds := append(append([]float64(nil), h.le...), before.le...)
	sort.Float64s(bounds)
	d := promHist{sum: h.sum - before.sum}
	for i, le := range bounds {
		if i > 0 && le == bounds[i-1] {
			continue
		}
		d.le = append(d.le, le)
		d.cum = append(d.cum, h.at(le)-before.at(le))
	}
	return d
}

// quantile estimates the q-quantile from the buckets the way
// Prometheus' histogram_quantile does: find the bucket the rank falls
// in and interpolate linearly inside it. Because shed leaves out empty
// buckets, the bound listed before a bucket need not be where it
// starts. pow2 says the histogram is one of shed's own duration
// histograms, whose bucket up to le starts at le/2; otherwise (the Go
// runtime's histograms, with finer and irregular bounds) a bucket is
// taken to start at the bound listed before it. A rank in the +Inf
// bucket reports the highest finite bound.
func (h promHist) quantile(q float64, pow2 bool) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * n
	lo, below := 0.0, 0.0
	for i, le := range h.le {
		if h.cum[i] >= rank && h.cum[i] > below {
			if math.IsInf(le, 1) {
				return lo
			}
			if pow2 {
				lo = le / 2
			}
			return lo + (le-lo)*(rank-below)/(h.cum[i]-below)
		}
		if !math.IsInf(le, 1) {
			lo = le
		}
		below = h.cum[i]
	}
	return lo
}
