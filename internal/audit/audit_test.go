package audit_test

import (
	"math"
	"testing"

	"she"
	"she/internal/audit"
	"she/internal/exact"
	"she/internal/hashing"
)

// newCM builds an unsharded SHE count-min for auditing tests.
func newCM(t *testing.T, window uint64) *she.ShardedCountMin {
	t.Helper()
	cm, err := she.NewShardedCountMin(1<<12, 1, she.Options{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// zipfish returns a deterministic skewed key stream: key i is drawn
// from a small hot set most of the time and a large cold set
// otherwise, so frequency queries see both heavy and light keys.
func zipfish(n int) []uint64 {
	keys := make([]uint64, n)
	state := uint64(99)
	for i := range keys {
		r := hashing.SplitMix64(&state)
		if r%4 != 0 {
			keys[i] = r % 16 // hot
		} else {
			keys[i] = 1000 + r%4096 // cold
		}
	}
	return keys
}

// TestFrequencyAREMatchesOffline is the acceptance check for the
// auditor's frequency math: at p=1 the shadow is a full exact window,
// and the streamed ARE/AAE must agree with an offline exact.Window
// comparison replaying the identical estimate sequence, each against
// the truth of the key the auditor probed.
func TestFrequencyAREMatchesOffline(t *testing.T) {
	const window = 512
	cm := newCM(t, window)
	var lastKey, lastEst uint64
	a := audit.New(audit.Frequency, audit.Config{SampleProb: 1},
		window, window, 1, audit.Probes{
			Frequency: func(k uint64) uint64 {
				lastKey, lastEst = k, cm.Frequency(k)
				return lastEst
			},
		})

	offline := exact.NewWindow(window)
	var offSamples uint64
	var offSumRel, offSumAbs float64
	for tick, k := range zipfish(8192) {
		cm.Insert(k)
		a.Observe(k, uint64(tick+1))
		offline.Push(k)
		truth := float64(offline.Frequency(lastKey))
		abs := math.Abs(float64(lastEst) - truth)
		offSamples++
		offSumRel += abs / truth
		offSumAbs += abs
	}

	st := a.Snapshot()
	if st.Observations != 8192 || st.ErrSamples != offSamples {
		t.Fatalf("observations=%d errSamples=%d, want 8192/%d", st.Observations, st.ErrSamples, offSamples)
	}
	offARE := offSumRel / float64(offSamples)
	offAAE := offSumAbs / float64(offSamples)
	if math.Abs(st.ARE()-offARE) > 1e-9 {
		t.Fatalf("streamed ARE %.12f != offline ARE %.12f", st.ARE(), offARE)
	}
	if math.Abs(st.AAE()-offAAE) > 1e-9 {
		t.Fatalf("streamed AAE %.12f != offline AAE %.12f", st.AAE(), offAAE)
	}
	if st.ShadowLen != window || st.Coverage != 1 {
		t.Fatalf("shadow len=%d coverage=%v, want full window", st.ShadowLen, st.Coverage)
	}
}

// TestFrequencySampledMatchesOffline repeats the agreement check at
// p=1/4: the offline model applies the same Sampled() filter and a
// window of the scaled capacity, and must see the identical truth.
func TestFrequencySampledMatchesOffline(t *testing.T) {
	const window = 1024
	cm := newCM(t, window)
	var lastKey, lastEst uint64
	a := audit.New(audit.Frequency, audit.Config{SampleProb: 0.25, Seed: 7},
		window, window, 1, audit.Probes{
			Frequency: func(k uint64) uint64 {
				lastKey, lastEst = k, cm.Frequency(k)
				return lastEst
			},
		})

	offline := exact.NewWindow(window / 4)
	var offSamples uint64
	var offSumRel float64
	for tick, k := range zipfish(16384) {
		cm.Insert(k)
		a.Observe(k, uint64(tick+1))
		if !a.Sampled(k) {
			continue
		}
		offline.Push(k)
		truth := float64(offline.Frequency(lastKey))
		offSamples++
		offSumRel += math.Abs(float64(lastEst)-truth) / truth
	}
	if offSamples == 0 {
		t.Fatal("sampling selected no keys; test stream too small")
	}
	st := a.Snapshot()
	if st.ErrSamples != offSamples {
		t.Fatalf("auditor recorded %d samples, offline %d", st.ErrSamples, offSamples)
	}
	if off := offSumRel / float64(offSamples); math.Abs(st.ARE()-off) > 1e-9 {
		t.Fatalf("streamed ARE %.12f != offline %.12f", st.ARE(), off)
	}
}

// TestSamplingDeterministicAndBounded: non-sampled keys never touch
// the shadow, and MaxKeys caps the shadow with Coverage reporting the
// shortfall.
func TestSamplingDeterministicAndBounded(t *testing.T) {
	a := audit.New(audit.Frequency, audit.Config{SampleProb: 1.0 / 64, MaxKeys: 8},
		1<<20, 1<<20, 1, audit.Probes{Frequency: func(uint64) uint64 { return 0 }})
	sampled := 0
	for k := uint64(0); k < 4096; k++ {
		if a.Sampled(k) != a.Sampled(k) {
			t.Fatal("Sampled not deterministic")
		}
		if a.Sampled(k) {
			sampled++
		}
		a.Observe(k, k+1)
	}
	// 4096 keys at p=1/64: expect ~64 sampled; the hash is fixed, so
	// the exact count is stable — just require it is in a sane band.
	if sampled < 32 || sampled > 128 {
		t.Fatalf("sampled %d of 4096 keys at p=1/64", sampled)
	}
	st := a.Snapshot()
	if st.Observations != uint64(sampled) {
		t.Fatalf("observations=%d, want %d", st.Observations, sampled)
	}
	if st.ShadowCap != 8 || st.ShadowLen > 8 {
		t.Fatalf("shadow cap=%d len=%d, want cap 8", st.ShadowCap, st.ShadowLen)
	}
	if st.Coverage >= 1 || st.Coverage <= 0 {
		t.Fatalf("coverage=%v, want (0,1) when MaxKeys binds", st.Coverage)
	}
}

// fakeFilter is an exact membership oracle with injectable lies.
type fakeFilter struct {
	win       *exact.Window
	alwaysYes bool
}

func (f *fakeFilter) contains(k uint64) bool {
	if f.alwaysYes {
		return true
	}
	return f.win.Contains(k)
}

func TestMembershipFalsePositivesAndNegatives(t *testing.T) {
	const window = 64
	// Perfect filter: zero false anything.
	perfect := &fakeFilter{win: exact.NewWindow(window)}
	a := audit.New(audit.Membership, audit.Config{SampleProb: 1},
		window, window, 1, audit.Probes{Contains: perfect.contains})
	for i := 0; i < 2000; i++ {
		k := uint64(i % 512)
		perfect.win.Push(k)
		a.Observe(k, uint64(i+1))
	}
	st := a.Snapshot()
	if st.PresentProbes != 2000 {
		t.Fatalf("present probes = %d, want 2000", st.PresentProbes)
	}
	if st.AbsentProbes == 0 {
		t.Fatal("no absent-key probes despite heavy eviction")
	}
	if st.FalsePositives != 0 || st.FalseNegatives != 0 {
		t.Fatalf("perfect filter scored FP=%d FN=%d", st.FalsePositives, st.FalseNegatives)
	}

	// Always-yes filter: every absent probe is a false positive.
	liar := &fakeFilter{win: exact.NewWindow(window), alwaysYes: true}
	b := audit.New(audit.Membership, audit.Config{SampleProb: 1},
		window, window, 1, audit.Probes{Contains: liar.contains})
	for i := 0; i < 2000; i++ {
		b.Observe(uint64(i%512), uint64(i+1))
	}
	sb := b.Snapshot()
	if sb.AbsentProbes == 0 || sb.FalsePositives != sb.AbsentProbes {
		t.Fatalf("always-yes filter: FP=%d of %d absent probes, want all", sb.FalsePositives, sb.AbsentProbes)
	}
	if got := sb.FPRate(); got != 1 {
		t.Fatalf("FPRate = %v, want 1", got)
	}
	if sb.FalseNegatives != 0 {
		t.Fatalf("always-yes filter scored %d false negatives", sb.FalseNegatives)
	}
}

func TestCardinalityError(t *testing.T) {
	const window = 256
	win := exact.NewWindow(window)
	// The probe answers with the exact cardinality, so at p=1 the
	// relative error must be identically zero.
	a := audit.New(audit.Cardinality, audit.Config{SampleProb: 1},
		window, window, 1, audit.Probes{
			Cardinality: func() float64 { return float64(win.Cardinality()) },
		})
	for i := 0; i < 4096; i++ {
		k := uint64(i % 1000)
		win.Push(k)
		a.Observe(k, uint64(i+1))
	}
	st := a.Snapshot()
	if st.CardChecks == 0 {
		t.Fatal("no cardinality checks ran")
	}
	if st.ARE() != 0 || st.LastRelErr != 0 {
		t.Fatalf("exact oracle scored ARE=%v last=%v", st.ARE(), st.LastRelErr)
	}
	if st.LastCardEst != st.LastCardTruth {
		t.Fatalf("last est %v != truth %v", st.LastCardEst, st.LastCardTruth)
	}
}

// TestPhaseProfile: errors land in the phase bucket of their tick, and
// a full sweep populates every bucket.
func TestPhaseProfile(t *testing.T) {
	const window = 1600 // tcycle 1600 → 100 ticks per phase bucket
	a := audit.New(audit.Frequency, audit.Config{SampleProb: 1},
		window, window, 1, audit.Probes{
			Frequency: func(uint64) uint64 { return 2 }, // always wrong by construction
		})
	for i := 0; i < 2*window; i++ {
		a.Observe(uint64(1e9+i), uint64(i+1)) // all-distinct keys: truth 1, est 2
	}
	st := a.Snapshot()
	var total uint64
	for p, b := range st.Phase {
		if b.Observations == 0 {
			t.Fatalf("phase bucket %d empty after two full cycles", p)
		}
		// truth=1, est=2 → every sample has relative error 1.
		if m := b.Mean(); math.Abs(m-1) > 1e-12 {
			t.Fatalf("phase %d mean = %v, want 1", p, m)
		}
		total += b.Observations
	}
	if total != st.ErrSamples {
		t.Fatalf("phase buckets hold %d samples, errSamples=%d", total, st.ErrSamples)
	}
	if st.ErrHist.Total != st.ErrSamples {
		t.Fatalf("err histogram total %d != samples %d", st.ErrHist.Total, st.ErrSamples)
	}
}

func TestResetReusesShadow(t *testing.T) {
	a := audit.New(audit.Frequency, audit.Config{SampleProb: 1},
		128, 128, 1, audit.Probes{Frequency: func(uint64) uint64 { return 1 }})
	for i := 0; i < 500; i++ {
		a.Observe(uint64(i), uint64(i+1))
	}
	if st := a.Snapshot(); st.Observations == 0 || st.ShadowLen == 0 {
		t.Fatal("auditor recorded nothing before reset")
	}
	a.Reset()
	st := a.Snapshot()
	if st.Observations != 0 || st.ErrSamples != 0 || st.ShadowLen != 0 || st.ShadowKeys != 0 {
		t.Fatalf("reset left state behind: %+v", st)
	}
	if st.ShadowCap != 128 || st.SampleProb != 1 {
		t.Fatalf("reset lost geometry: cap=%d p=%v", st.ShadowCap, st.SampleProb)
	}
	// The auditor keeps working after the in-place reset.
	a.Observe(42, 1)
	if st := a.Snapshot(); st.Observations != 1 {
		t.Fatalf("post-reset observation not recorded: %+v", st)
	}
}

func TestShedAndRestore(t *testing.T) {
	a := audit.New(audit.Frequency, audit.Config{SampleProb: 1},
		1024, 1024, 1, audit.Probes{Frequency: func(uint64) uint64 { return 1 }})
	full := a.FullMemoryBytes()
	if full <= 0 || a.MemoryBytes() != full {
		t.Fatalf("memory estimates: full=%d current=%d", full, a.MemoryBytes())
	}
	for i := 0; i < 100; i++ {
		a.Observe(uint64(i), uint64(i+1))
	}

	a.Shed(0.25)
	st := a.Snapshot()
	if st.ShadowCap != 256 {
		t.Fatalf("shed cap = %d, want 256", st.ShadowCap)
	}
	if st.Observations != 0 || st.ShadowLen != 0 {
		t.Fatalf("shed kept stale state: %+v", st)
	}
	if cov := st.Coverage; cov < 0.24 || cov > 0.26 {
		t.Fatalf("shed coverage = %v, want ~0.25", cov)
	}
	if a.MemoryBytes() >= full {
		t.Fatalf("shed did not shrink memory: %d >= %d", a.MemoryBytes(), full)
	}
	if a.FullMemoryBytes() != full {
		t.Fatalf("FullMemoryBytes changed under shed: %d != %d", a.FullMemoryBytes(), full)
	}
	// Reset while shed keeps the shrunk geometry.
	a.Observe(1, 1)
	a.Reset()
	if st := a.Snapshot(); st.ShadowCap != 256 || st.Coverage > 0.26 {
		t.Fatalf("reset under shed lost geometry: %+v", st)
	}

	a.Restore()
	st = a.Snapshot()
	if st.ShadowCap != 1024 || st.Coverage != 1 {
		t.Fatalf("restore: cap=%d coverage=%v", st.ShadowCap, st.Coverage)
	}
	if a.MemoryBytes() != full {
		t.Fatalf("restore memory = %d, want %d", a.MemoryBytes(), full)
	}
	// Still audits correctly after the round trip.
	a.Observe(7, 1)
	if st := a.Snapshot(); st.Observations != 1 || st.ErrSamples != 1 {
		t.Fatalf("post-restore observation: %+v", st)
	}
}

func TestShedClampsAndIdempotent(t *testing.T) {
	a := audit.New(audit.Frequency, audit.Config{SampleProb: 1},
		64, 64, 1, audit.Probes{Frequency: func(uint64) uint64 { return 1 }})
	a.Shed(0) // clamps to one entry, never zero
	if st := a.Snapshot(); st.ShadowCap != 1 {
		t.Fatalf("Shed(0) cap = %d, want 1", st.ShadowCap)
	}
	a.Observe(1, 1)
	a.Shed(0) // same capacity: must not wipe state
	if st := a.Snapshot(); st.Observations != 1 {
		t.Fatalf("no-op shed wiped state: %+v", st)
	}
	a.Shed(2.0) // clamps to full
	if st := a.Snapshot(); st.ShadowCap != 64 {
		t.Fatalf("Shed(2) cap = %d, want 64", st.ShadowCap)
	}
}

// recencyFilter answers membership from each key's last occurrence: a
// key is present while it is among the last span items pushed.
type recencyFilter struct {
	last map[uint64]int
	pos  int
	span int
}

func (f *recencyFilter) push(k uint64) { f.pos++; f.last[k] = f.pos }

func (f *recencyFilter) contains(k uint64) bool {
	p, ok := f.last[k]
	return ok && f.pos-p < f.span
}

// TestMembershipSeesForgottenKeys: a filter that keeps only half the
// window forgets in-window keys, and the audit's present-key probe must
// see it; a filter that keeps the whole window scores no false negative.
// Probing only the key just pushed sees neither. At p = 1/16 under seed
// 1 no hot key is sampled, so the shadow's 64 entries span about four
// windows: the probe must pick its key by stream age, not by depth.
func TestMembershipSeesForgottenKeys(t *testing.T) {
	const window = 1024
	for _, tc := range []struct {
		name   string
		p      float64
		span   int
		wantFN bool
	}{
		{"half window", 1, window / 2, true},
		{"whole window", 1, window, false},
		{"half window, p=1/16", 1.0 / 16, window / 2, true},
		{"whole window, p=1/16", 1.0 / 16, window, false},
	} {
		f := &recencyFilter{last: map[uint64]int{}, span: tc.span}
		a := audit.New(audit.Membership, audit.Config{SampleProb: tc.p, Seed: 1},
			window, window, 1, audit.Probes{Contains: f.contains})
		for k := uint64(0); k < 16 && tc.p < 1; k++ {
			if a.Sampled(k) {
				t.Fatalf("%s: hot key %d is sampled", tc.name, k)
			}
		}
		for i, k := range zipfish(20000) {
			f.push(k)
			a.Observe(k, uint64(i+1))
		}
		st := a.Snapshot()
		if st.PresentProbes == 0 || st.PresentProbes != st.Observations {
			t.Fatalf("%s: present probes = %d, want one per observation (%d)",
				tc.name, st.PresentProbes, st.Observations)
		}
		if got := st.FalseNegatives > 0; got != tc.wantFN {
			t.Fatalf("%s: FN = %d of %d probes, want FN > 0 to be %v",
				tc.name, st.FalseNegatives, st.PresentProbes, tc.wantFN)
		}
	}
}

// recencyCM counts a key's occurrences among the last span items
// pushed: an exact Count-Min whose window is span.
type recencyCM struct {
	seen map[uint64][]int
	pos  int
	span int
}

func (f *recencyCM) push(k uint64) { f.pos++; f.seen[k] = append(f.seen[k], f.pos) }

func (f *recencyCM) frequency(k uint64) uint64 {
	n := uint64(0)
	for _, p := range f.seen[k] {
		if f.pos-p < f.span {
			n++
		}
	}
	return n
}

// TestFrequencySeesForgottenKeys: a Count-Min that keeps only half the
// window under-counts in-window keys, and the audit's frequency probe
// must see it; one that keeps the whole window reads no error. On a
// stream of distinct keys, probing only the key just pushed reads 0
// for both.
func TestFrequencySeesForgottenKeys(t *testing.T) {
	const window = 1024
	for _, tc := range []struct {
		name    string
		p       float64
		span    int
		wantErr bool
	}{
		{"half window", 1, window / 2, true},
		{"whole window", 1, window, false},
		{"half window, p=1/16", 1.0 / 16, window / 2, true},
		{"whole window, p=1/16", 1.0 / 16, window, false},
	} {
		f := &recencyCM{seen: map[uint64][]int{}, span: tc.span}
		a := audit.New(audit.Frequency, audit.Config{SampleProb: tc.p, Seed: 1},
			window, window, 1, audit.Probes{Frequency: f.frequency})
		for i := 0; i < 20000; i++ {
			k := uint64(1e9 + i)
			f.push(k)
			a.Observe(k, uint64(i+1))
		}
		st := a.Snapshot()
		if st.ErrSamples == 0 || st.ErrSamples != st.Observations {
			t.Fatalf("%s: %d error samples, want one per observation (%d)", tc.name, st.ErrSamples, st.Observations)
		}
		if got := st.ARE() > 0; got != tc.wantErr {
			t.Fatalf("%s: ARE = %g over %d samples, want ARE > 0 to be %v", tc.name, st.ARE(), st.ErrSamples, tc.wantErr)
		}
	}
}
