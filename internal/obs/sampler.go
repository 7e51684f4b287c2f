package obs

import "sync/atomic"

// Sampler is the one sampling decision a server takes per request line.
// One tick counts lines while any consumer's rate is on; a line is
// sampled for a consumer when the tick is a multiple of that consumer's
// 1-in-N rate, so consumers at equal rates sample the same lines. With
// every rate off a line costs two atomic loads; with any on, one atomic
// add besides, however many consumers there are.
type Sampler struct {
	// Trace is the request tracer's rate, Traffic the hot-key and
	// MONITOR feed's.
	Trace, Traffic Rate
	tick           atomic.Int64
}

// Rate is one consumer's 1-in-N sampling rate and the count of lines it
// sampled. The zero Rate is off.
type Rate struct {
	every atomic.Int64
	hits  atomic.Uint64
}

// Set changes the rate at runtime; 0 or less turns it off.
func (r *Rate) Set(n int) { r.every.Store(int64(max(n, 0))) }

// Every reports the 1-in-N rate, 0 when off.
func (r *Rate) Every() int { return int(r.every.Load()) }

// Sampled reports how many lines this consumer has sampled.
func (r *Rate) Sampled() uint64 { return r.hits.Load() }

func (r *Rate) hit(tick, every int64) bool {
	if every == 0 || tick%every != 0 {
		return false
	}
	r.hits.Add(1)
	return true
}

// Line takes the decision for one request line: whether it is traced,
// and whether it feeds the traffic consumers.
func (s *Sampler) Line() (trace, traffic bool) {
	te, fe := s.Trace.every.Load(), s.Traffic.every.Load()
	if te == 0 && fe == 0 {
		return false, false
	}
	tick := s.tick.Add(1)
	return s.Trace.hit(tick, te), s.Traffic.hit(tick, fe)
}
