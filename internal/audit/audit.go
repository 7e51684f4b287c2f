// Package audit measures a live sketch's estimation error online.
//
// The SHE paper trades exactness for memory: approximate cleaning
// (α > 0) and age-sensitive cell selection leave young and aged
// contamination in the window, and how much error that costs depends
// entirely on the live workload. Offline experiments (EXPERIMENTS.md)
// characterize it for synthetic streams; this package measures it on
// the stream the server is actually absorbing.
//
// An Auditor keeps a deterministic hash-sampled shadow of the audited
// stream: a key k is audited iff hash(k) < p·2^64, so roughly a
// fraction p of keys — and, because sampling is by key, every
// occurrence of each sampled key — flow into a bounded exact.Window.
// The shadow's capacity is ⌈p·N⌉ (capped by MaxKeys), so it holds the
// sampled sub-stream of approximately the last N stream items: the
// sampled sub-stream arrives at rate p of the full stream, and a
// window of the last ⌈p·N⌉ sampled items therefore spans ≈N full
// stream positions. Truth read from the shadow is exact for the
// sampled keys up to that eviction-timing jitter.
//
// On every sampled insert the auditor compares the live sketch answer
// against shadow truth — per-key frequency (ARE/AAE) for frequency
// sketches, membership (false positives against expired keys, false
// negatives against present keys) for filters, both probing a key
// from the middle of the window (bandKey), and periodically a
// scaled distinct-count comparison for cardinality estimators — and
// buckets each observed error by the sketch's cleaning-cycle phase
// (CyclePos/Tcycle, PhaseBuckets buckets), turning the paper's
// young/aged contamination analysis into a live per-sketch profile.
//
// Cost model: with auditing off the caller pays one nil check per
// insert. With auditing on, every insert pays one stateless 64-bit
// mix and compare; only the sampled fraction p takes the mutex and
// touches the shadow.
package audit

import (
	"math"
	"sort"
	"sync"

	"she/internal/exact"
	"she/internal/hashing"
)

// Kind selects which question the audited sketch answers, and
// therefore which error the auditor measures.
type Kind int

const (
	// Frequency sketches (CM, CU) answer per-key counts; the auditor
	// streams ARE/AAE against shadow counts.
	Frequency Kind = iota
	// Membership filters (BF) answer yes/no; the auditor measures
	// false-positive rate on expired keys and false-negative rate on
	// present keys.
	Membership
	// Cardinality estimators (BM, HLL) answer window distinct counts;
	// the auditor measures relative error against the scaled shadow
	// cardinality.
	Cardinality
)

// String returns the kind's wire/metrics token.
func (k Kind) String() string {
	switch k {
	case Frequency:
		return "freq"
	case Membership:
		return "membership"
	case Cardinality:
		return "cardinality"
	}
	return "unknown"
}

// PhaseBuckets is how many cleaning-cycle phase buckets the error
// profile uses: each bucket covers 1/16 of the Tcycle = (1+α)·N sweep.
const PhaseBuckets = 16

// ErrEdges are the relative-error histogram bucket upper bounds
// (dimensionless; a 1-2.5-5 log ladder). Errors above the last edge
// land in the overflow bucket.
var ErrEdges = [16]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
	0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// cardCheckInterval is how many sampled observations separate two
// cardinality comparisons: Cardinality() scans every register, so it
// must not run per sample.
const cardCheckInterval = 32

// expiredRingSize bounds the set of recently-expired sampled keys kept
// for false-positive probing.
const expiredRingSize = 64

// DefaultMaxKeys caps the shadow window capacity when Config.MaxKeys
// is zero.
const DefaultMaxKeys = 1 << 16

// shadowBytesPerEntry approximates the shadow's heap cost per entry of
// capacity: 8 ring bytes, 8 tick bytes and a counts-map entry (two
// uint64s and bucket overhead at typical load factors). The overload
// accounting in internal/server budgets audit memory with this estimate.
const shadowBytesPerEntry = 56

// Probes give the auditor read access to the audited sketch's answers.
// Only the field matching the auditor's Kind is consulted; probes are
// called with the auditor's lock held, so they may be queried at most
// once per sampled insert.
type Probes struct {
	Frequency   func(key uint64) uint64
	Contains    func(key uint64) bool
	Cardinality func() float64
}

// Config carries the operator-facing knobs.
type Config struct {
	// SampleProb is the per-key sampling probability p: a key is
	// audited iff hash(key) < p·2^64. Zero or negative disables
	// auditing (callers should then not construct an Auditor at all).
	SampleProb float64
	// MaxKeys caps the shadow window capacity regardless of p·N, so
	// one huge-window sketch cannot make its auditor unbounded. When
	// the cap binds, the shadow spans fewer than N stream positions
	// and Stats.Coverage reports the shortfall. 0 = DefaultMaxKeys.
	MaxKeys int
	// Seed salts the sampling hash so the audited key set is not
	// correlated with the sketches' own hash functions.
	Seed uint64
}

// PhaseStat is one cleaning-cycle phase bucket of the error profile.
type PhaseStat struct {
	// Observations counts error samples recorded in this phase.
	Observations uint64
	// SumErr accumulates the per-sample error: relative error for
	// frequency/cardinality kinds, a 0/1 wrong-answer indicator for
	// membership. SumErr/Observations is the phase's mean error.
	SumErr float64
}

// Mean returns the bucket's mean error (0 when empty).
func (p PhaseStat) Mean() float64 {
	if p.Observations == 0 {
		return 0
	}
	return p.SumErr / float64(p.Observations)
}

// ErrHist is a fixed-bucket histogram of observed relative errors,
// bucketed by ErrEdges plus one overflow bucket.
type ErrHist struct {
	Counts [len(ErrEdges) + 1]uint64
	Sum    float64
	Total  uint64
}

func (h *ErrHist) observe(e float64) {
	i := 0
	for i < len(ErrEdges) && e > ErrEdges[i] {
		i++
	}
	h.Counts[i]++
	h.Sum += e
	h.Total++
}

// Stats is a consistent snapshot of an auditor's accumulated state.
type Stats struct {
	Kind       Kind
	SampleProb float64

	// Shadow geometry: current length, capacity, and distinct sampled
	// keys held.
	ShadowLen, ShadowCap, ShadowKeys int
	// Coverage is the fraction of the sketch's window the shadow can
	// span, min(1, cap/(p·N)); below 1 the MaxKeys cap is binding and
	// truth reads cover a shorter effective window.
	Coverage float64

	// Observations counts sampled inserts processed.
	Observations uint64

	// Frequency/cardinality error accumulators (ErrSamples counts the
	// recorded comparisons, not Observations).
	ErrSamples uint64
	SumRelErr  float64
	SumAbsErr  float64
	LastRelErr float64

	// Membership accumulators.
	PresentProbes  uint64
	FalseNegatives uint64
	AbsentProbes   uint64
	FalsePositives uint64

	// Cardinality accumulators: the last est/truth pair compared.
	CardChecks    uint64
	LastCardEst   float64
	LastCardTruth float64

	Phase   [PhaseBuckets]PhaseStat
	ErrHist ErrHist
}

// ARE returns the mean relative error over recorded comparisons.
func (s Stats) ARE() float64 {
	if s.ErrSamples == 0 {
		return 0
	}
	return s.SumRelErr / float64(s.ErrSamples)
}

// AAE returns the mean absolute error over recorded comparisons.
func (s Stats) AAE() float64 {
	if s.ErrSamples == 0 {
		return 0
	}
	return s.SumAbsErr / float64(s.ErrSamples)
}

// FPRate returns false positives per absent-key probe.
func (s Stats) FPRate() float64 {
	if s.AbsentProbes == 0 {
		return 0
	}
	return float64(s.FalsePositives) / float64(s.AbsentProbes)
}

// FNRate returns false negatives per present-key probe.
func (s Stats) FNRate() float64 {
	if s.PresentProbes == 0 {
		return 0
	}
	return float64(s.FalseNegatives) / float64(s.PresentProbes)
}

// Auditor continuously compares one sketch's answers against a
// hash-sampled exact shadow. Safe for concurrent use; the immutable
// sampling parameters are read lock-free on the insert path.
type Auditor struct {
	kind   Kind
	probes Probes

	prob      float64
	threshold uint64 // hash(key) < threshold → audited
	all       bool   // p >= 1: skip the hash entirely
	seed      uint64
	coverage  float64

	// Cycle-phase geometry, captured once from the sketch's stats:
	// per-shard Tcycle and the shard count. The phase of tick t is
	// ((t/shards) mod tcycle)/tcycle — shards start aligned at tick 0
	// and receive near-uniform traffic, so the mean shard phase tracks
	// this within a bucket width.
	tcycle uint64
	shards uint64
	window uint64 // the sketch's window N, in stream items

	// fullCap is the configured shadow capacity; Shed may run the
	// shadow smaller than this until Restore.
	fullCap int

	mu     sync.Mutex
	shadow *exact.Window
	// ticks holds each shadow entry's stream tick in the shadow's ring
	// order: ticks[(tickNext-1-d) mod cap] is shadow.At(d)'s.
	ticks    []uint64
	tickNext int
	st       Stats

	// expired is a ring of sampled keys whose last in-window
	// occurrence was evicted — the known-absent population for
	// false-positive probing.
	expired     [expiredRingSize]uint64
	expiredLen  int
	expiredNext int // next write slot
	probeNext   int // next probe slot
	bandNext    int // next band probe (bandKey), as a step into the band
	sinceCard   int
}

// New builds an auditor for one sketch. window, tcycle and shards come
// from the sketch's aggregate stats (totals across shards); probes
// must answer for the auditor's kind.
func New(kind Kind, cfg Config, window, tcycle uint64, shards int, probes Probes) *Auditor {
	p := cfg.SampleProb
	if p > 1 {
		p = 1
	}
	maxKeys := cfg.MaxKeys
	if maxKeys <= 0 {
		maxKeys = DefaultMaxKeys
	}
	want := math.Ceil(p * float64(window))
	capacity := int(want)
	if capacity < 1 {
		capacity = 1
	}
	if capacity > maxKeys {
		capacity = maxKeys
	}
	coverage := 1.0
	if want > 0 && float64(capacity) < want {
		coverage = float64(capacity) / want
	}
	if shards < 1 {
		shards = 1
	}
	a := &Auditor{
		kind:     kind,
		probes:   probes,
		prob:     p,
		all:      p >= 1,
		seed:     cfg.Seed,
		coverage: coverage,
		tcycle:   tcycle / uint64(shards),
		shards:   uint64(shards),
		window:   window,
		fullCap:  capacity,
		shadow:   exact.NewWindow(capacity),
		ticks:    make([]uint64, capacity),
	}
	a.st.Kind = kind
	a.st.SampleProb = p
	a.st.ShadowCap = capacity
	a.st.Coverage = coverage
	if !a.all {
		// threshold = p·2^64, computed in float64 (2^64 is exactly
		// representable; p = 1/1024 gives an exact 2^54).
		a.threshold = uint64(math.Min(p*math.Ldexp(1, 64), math.MaxUint64))
	}
	return a
}

// Sampled reports whether key falls inside the audited key sample.
func (a *Auditor) Sampled(key uint64) bool {
	return a.all || hashing.U64(key, a.seed) < a.threshold
}

// Observe audits one insert that the sketch has already absorbed. tick
// is the sketch's post-insert item count (used for the cycle-phase
// bucket). Non-sampled keys return after one hash; sampled keys take
// the lock, update the shadow, and compare the live answer to truth.
func (a *Auditor) Observe(key, tick uint64) {
	if !a.Sampled(key) {
		return
	}
	a.observeSampled(key, tick)
}

// phaseBucket maps a stream tick onto its cleaning-cycle phase bucket.
func (a *Auditor) phaseBucket(tick uint64) int {
	if a.tcycle == 0 {
		return 0
	}
	pos := (tick / a.shards) % a.tcycle
	b := int(pos * PhaseBuckets / a.tcycle)
	if b >= PhaseBuckets {
		b = PhaseBuckets - 1
	}
	return b
}

func (a *Auditor) observeSampled(key, tick uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.st.Observations++
	a.ticks[a.tickNext] = tick
	a.tickNext = (a.tickNext + 1) % len(a.ticks)
	if gone, ok := a.shadow.PushEvicted(key); ok {
		a.expired[a.expiredNext] = gone
		a.expiredNext = (a.expiredNext + 1) % expiredRingSize
		if a.expiredLen < expiredRingSize {
			a.expiredLen++
		}
	}
	phase := a.phaseBucket(tick)
	switch a.kind {
	case Frequency:
		a.observeFrequency(a.bandKey(key, tick), phase)
	case Membership:
		a.observeMembership(a.bandKey(key, tick), phase)
	case Cardinality:
		if a.sinceCard++; a.sinceCard >= cardCheckInterval {
			a.sinceCard = 0
			a.observeCardinality(phase)
		}
	}
}

// bandKey picks the shadow key an observation probes: an entry whose
// stream age, in items since its insert, lies in [N/2, 3N/4) — old
// enough that a sketch keeping too short a window has forgotten it or
// under-counts it, young enough that inserts reaching the sketch ahead
// of their audit cannot age it out. Age is counted in ticks, not shadow
// depth: sampling is by key, so under skew the depth says little about
// how far back an entry lies. While no entry is that old it is key, the
// one just pushed. Successive calls walk the band from its old end to
// its young end. Either way the key is in the shadow, so its truth is
// at least 1.
func (a *Auditor) bandKey(key, tick uint64) uint64 {
	age := func(d int) uint64 { return tick - a.ticks[(a.tickNext-1-d+len(a.ticks))%len(a.ticks)] }
	lo, hi := a.window/2, a.window*3/4
	// Ages grow with depth, so the band is a run of depths.
	dlo := sort.Search(a.shadow.Len(), func(d int) bool { return age(d) >= lo })
	dhi := sort.Search(a.shadow.Len(), func(d int) bool { return age(d) >= hi })
	if dhi > dlo {
		k := a.bandNext % (dhi - dlo)
		a.bandNext = k + 1
		// Concurrent inserts can reach the audit out of tick order, so
		// the chosen entry's own age is checked.
		if d := dhi - 1 - k; age(d) >= lo && age(d) < hi {
			return a.shadow.At(d)
		}
	}
	return key
}

// observeFrequency compares the sketch's count for key, a bandKey,
// against the shadow's. The key is in the shadow, so truth ≥ 1 and the
// relative error needs no guard.
func (a *Auditor) observeFrequency(key uint64, phase int) {
	truth := float64(a.shadow.Frequency(key))
	est := float64(a.probes.Frequency(key))
	abs := math.Abs(est - truth)
	rel := abs / truth
	a.recordErr(rel, abs, phase)
}

// observeMembership probes present, a bandKey, for a false negative
// and round-robins one expired key for a false positive. The phase
// profile records a 0/1 wrong-answer indicator per probe.
func (a *Auditor) observeMembership(present uint64, phase int) {
	a.st.PresentProbes++
	wrong := 0.0
	if !a.probes.Contains(present) {
		a.st.FalseNegatives++
		wrong = 1
	}
	a.st.Phase[phase].Observations++
	a.st.Phase[phase].SumErr += wrong

	if a.expiredLen == 0 {
		return
	}
	probe := a.expired[a.probeNext%a.expiredLen]
	a.probeNext = (a.probeNext + 1) % a.expiredLen
	if a.shadow.Contains(probe) {
		// The key was re-inserted since it expired; it is no longer a
		// known-absent probe.
		return
	}
	a.st.AbsentProbes++
	wrong = 0
	if a.probes.Contains(probe) {
		a.st.FalsePositives++
		wrong = 1
	}
	a.st.Phase[phase].Observations++
	a.st.Phase[phase].SumErr += wrong
}

// observeCardinality compares the sketch's distinct-count estimate
// against the shadow cardinality scaled by 1/p: distinct keys are
// sampled at rate p, so shadow distinct / p estimates the window
// distinct count.
func (a *Auditor) observeCardinality(phase int) {
	truth := float64(a.shadow.Cardinality()) / a.prob
	if truth == 0 {
		return
	}
	est := a.probes.Cardinality()
	abs := math.Abs(est - truth)
	rel := abs / truth
	a.st.CardChecks++
	a.st.LastCardEst = est
	a.st.LastCardTruth = truth
	a.recordErr(rel, abs, phase)
}

func (a *Auditor) recordErr(rel, abs float64, phase int) {
	a.st.ErrSamples++
	a.st.SumRelErr += rel
	a.st.SumAbsErr += abs
	a.st.LastRelErr = rel
	a.st.Phase[phase].Observations++
	a.st.Phase[phase].SumErr += rel
	a.st.ErrHist.observe(rel)
}

// Snapshot returns a consistent copy of the accumulated statistics.
func (a *Auditor) Snapshot() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.st
	st.ShadowLen = a.shadow.Len()
	st.ShadowKeys = a.shadow.Cardinality()
	return st
}

// Reset discards the accumulated statistics and empties the shadow in
// place (no reallocation), so an operator can restart the measurement
// after a workload shift without restarting the server.
func (a *Auditor) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.shadow.Reset()
	a.resetLocked()
}

// resetLocked zeroes the accumulators against the current shadow
// geometry. Caller holds a.mu.
func (a *Auditor) resetLocked() {
	a.st = Stats{
		Kind:       a.kind,
		SampleProb: a.prob,
		ShadowCap:  a.shadow.Cap(),
		Coverage:   a.coverage * float64(a.shadow.Cap()) / float64(a.fullCap),
	}
	a.expiredLen, a.expiredNext, a.probeNext, a.bandNext, a.sinceCard, a.tickNext = 0, 0, 0, 0, 0, 0
}

// Shed shrinks the shadow window to frac of its configured capacity
// (minimum one entry), releasing audit memory under overload; the old
// shadow is dropped for the garbage collector. The accumulated
// statistics restart — error samples measured against shadows of
// different spans cannot be mixed into one meaningful ARE — and
// Coverage reports the reduced span. Shed(1) or Restore returns to
// full capacity. No-op when the capacity would not change.
func (a *Auditor) Shed(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	newCap := int(math.Ceil(frac * float64(a.fullCap)))
	if newCap < 1 {
		newCap = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if newCap == a.shadow.Cap() {
		return
	}
	a.shadow, a.ticks = exact.NewWindow(newCap), make([]uint64, newCap)
	a.resetLocked()
}

// Restore undoes Shed, returning the shadow to its configured
// capacity (and restarting the measurement at full coverage).
func (a *Auditor) Restore() { a.Shed(1) }

// MemoryBytes estimates the auditor's current heap footprint from the
// live shadow capacity.
func (a *Auditor) MemoryBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(a.shadow.Cap()) * shadowBytesPerEntry
}

// FullMemoryBytes estimates the footprint at the configured (unshed)
// capacity. Overload control steps DOWN the degradation ladder using
// this number — judging recovery by the already-shed footprint would
// oscillate: shed frees memory, usage drops below the threshold,
// restore re-allocates, usage crosses it again.
func (a *Auditor) FullMemoryBytes() int64 {
	return int64(a.fullCap) * shadowBytesPerEntry
}
