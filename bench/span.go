package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call, or batch of calls, into a layer: the record
// the choosing-metrics guide asks for at each layer boundary. Spans of
// one request share Req; Parent is the span that caused this one (0 for
// a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"` // calls the span covers
}

// recorder keeps spans in memory; they are written out once, when the
// run is over, so that recording costs two clock reads and an append.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, req, calls int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Calls: calls})
	r.spans[id-1].Start = int64(time.Since(r.epoch))
	return id
}

func (r *recorder) end(id int) { r.spans[id-1].End = int64(time.Since(r.epoch)) }

// probe times calls of a layer function in batches, one span a batch,
// so the clock is read once per batch and costs the figure nothing
// (under 1 % at 1024 calls of 10 ns). fn makes calls [lo, hi). The
// result is the median over batches of ns per call: a batch that was
// pre-empted is an outlier the median drops.
func (r *recorder) probe(name string, calls, batch int, fn func(lo, hi int)) float64 {
	perCall := make([]float64, 0, calls/batch)
	for lo := 0; lo+batch <= calls; lo += batch {
		id := r.begin(name, 0, 0, batch)
		fn(lo, lo+batch)
		r.end(id)
		s := r.spans[id-1]
		perCall = append(perCall, float64(s.End-s.Start)/float64(batch))
	}
	return median(perCall)
}

// selfTimes returns, per span, its duration minus the part of it that
// its child spans cover. Children may overlap each other and may stick
// out of the parent; covered time is the union of the children clipped
// to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time and calls per span name.
func selfByName(spans []span) (ns map[string]int64, calls map[string]int) {
	self := selfTimes(spans)
	ns, calls = map[string]int64{}, map[string]int{}
	for _, s := range spans {
		ns[s.Name] += self[s.ID]
		calls[s.Name] += s.Calls
	}
	return ns, calls
}

func (r *recorder) write(path string, header map[string]any) error {
	header["spans"] = r.spans
	data, err := json.Marshal(header)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
