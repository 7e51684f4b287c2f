package core

import (
	"bytes"
	"math/rand"
	"testing"

	"she/internal/hashing"
	"she/internal/sketch"
)

// kernel is what the batch tests drive: the three entry points of an
// insert and the snapshot.
type kernel interface {
	Insert(key uint64)
	InsertBatch(keys []uint64)
	InsertAt(key, t uint64)
	AppendBinary(dst []byte) ([]byte, error)
}

// coldInsert is the kernels' insert written the cold way — fam.Index
// (and fam.Hash) per location, the clock's and the cell array's own
// methods — on the structure's own state: the reference the hoisted
// loops over locals are held to. at == nil inserts at the next tick.
func coldInsert(k kernel, key uint64, at *uint64) {
	clock := func(tc *tickClock, gc *groupClock) clockTime {
		if at != nil {
			return gc.at(*at)
		}
		return tc.advance(gc)
	}
	switch s := k.(type) {
	case *BF:
		now := clock(&s.tickClock, s.gc)
		for i := 0; i < s.fam.K(); i++ {
			j := s.fam.Index(i, key, s.m)
			if gid := s.grp.of(j); s.gc.stale(gid, now) {
				for b := range s.grp.size(gid) {
					*bfWord(s, gid*s.grp.w+b) &^= bfMask(s, gid*s.grp.w+b)
				}
			}
			*bfWord(s, j) |= bfMask(s, j)
		}
	case *CM:
		now := clock(&s.tickClock, s.gc)
		for i := 0; i < s.fam.K(); i++ {
			j := s.fam.Index(i, key, len(s.cells))
			if gid := s.grp.of(j); s.gc.stale(gid, now) {
				s.reset(gid)
			}
			s.cells[j] = uint32(min(uint64(s.cells[j])+1, 1<<32-1))
		}
	case *HLL:
		now := clock(&s.tickClock, s.gc)
		i := s.fam.Index(0, key, s.regs.Len())
		r := sketch.Rank32(uint32(s.fam.Hash(1, key)))
		if s.gc.stale(i, now) || r > s.regs.Get(i) {
			s.regs.Set(i, r)
		}
	}
}

// bfWord and bfMask address bit j of a filter the cold way: group
// j/w, bit j mod w of its bit words, which follow its clock word.
func bfWord(f *BF, j int) *uint64 {
	gid := j / f.grp.w
	return &f.data[gid*f.gc.stride+1+(j-gid*f.grp.w)/64]
}

func bfMask(f *BF, j int) uint64 { return 1 << ((j % f.grp.w) % 64) }

// TestInsertBatchMatchesInsert drives triplets of BF, CM and HLL with
// one random schedule — runs of count-based inserts, per key into one,
// through InsertBatch into the second and through coldInsert into the
// third, interleaved with explicit-time InsertAt/QueryAt calls that
// jump ahead by up to several cleaning cycles (the §5.1 aliasing gaps
// included) — and requires identical answers along the way and
// byte-identical snapshots at the end: batch ≡ per-key ≡ the cold
// Index loop. Group sizes include powers of two, non-powers of two and
// geometries with a short last group, with 1, 3, 4 and 8 hash
// functions. (TestCMSaturatingWidth covers saturation.)
func TestInsertBatchMatchesInsert(t *testing.T) {
	cfg := WindowConfig{N: 400, Alpha: 1, Seed: 5}
	probe := map[string]func(k kernel, key, t uint64) uint64{
		"bf": func(k kernel, key, t uint64) uint64 {
			if k.(*BF).QueryAt(key, t) {
				return 1
			}
			return 0
		},
		"cm":  func(k kernel, key, t uint64) uint64 { return k.(*CM).EstimateFrequencyAt(key, t) },
		"hll": func(k kernel, key, t uint64) uint64 { return uint64(k.(*HLL).EstimateCardinalityAt(t)) },
	}
	build := []struct {
		kind string
		mk   func() (kernel, error)
	}{
		{"bf", func() (kernel, error) { return NewBF(4096, 64, 4, cfg) }},
		{"bf", func() (kernel, error) { return NewBF(4096, 64, 8, cfg) }},
		{"bf", func() (kernel, error) { return NewBF(4096, 16, 1, cfg) }},
		{"bf", func() (kernel, error) { return NewBF(1000, 24, 3, cfg) }},
		{"bf", func() (kernel, error) { return NewBF(1000, 48, 8, cfg) }},
		{"bf", func() (kernel, error) { return NewBF(1000, 48, 1, cfg) }},
		{"bf", func() (kernel, error) { return NewBF(777, 1, 2, cfg) }},
		{"cm", func() (kernel, error) { return NewCM(1024, 64, 4, 32, cfg) }},
		{"cm", func() (kernel, error) { return NewCM(1024, 64, 8, 32, cfg) }},
		{"cm", func() (kernel, error) { return NewCM(1000, 64, 3, 32, cfg) }},
		{"cm", func() (kernel, error) { return NewCM(1024, 32, 1, 32, cfg) }},
		{"cm", func() (kernel, error) { return NewCM(500, 48, 3, 32, cfg) }},
		{"cm", func() (kernel, error) { return NewCM(500, 48, 8, 32, cfg) }},
		{"cm", func() (kernel, error) { return NewCM(500, 24, 1, 32, cfg) }},
		{"cm", func() (kernel, error) { return NewCM(500, 24, 4, 32, cfg) }},
		{"hll", func() (kernel, error) { return NewHLL(128, cfg) }},
		{"hll", func() (kernel, error) { return NewHLL(100, cfg) }},
	}
	for bi, b := range build {
		rng := rand.New(rand.NewSource(int64(bi)))
		var twins [3]kernel // per key, batched, cold
		for i := range twins {
			var err error
			if twins[i], err = b.mk(); err != nil {
				t.Fatal(err)
			}
		}
		one, batched, cold := twins[0], twins[1], twins[2]
		T := cfg.Tcycle()
		clock := uint64(0) // explicit-time cursor, independent of the ticks
		for step := 0; step < 400; step++ {
			switch rng.Intn(3) {
			case 0: // a run of count-based inserts
				keys := make([]uint64, rng.Intn(150))
				for i := range keys {
					keys[i] = uint64(rng.Intn(900))
					one.Insert(keys[i])
					coldInsert(cold, keys[i], nil)
				}
				batched.InsertBatch(keys)
			case 1: // explicit-time inserts after a jump of 0..5 cycles
				clock += uint64(rng.Int63n(int64(5*T + 1)))
				key := uint64(rng.Intn(900))
				one.InsertAt(key, clock)
				batched.InsertAt(key, clock)
				coldInsert(cold, key, &clock)
			case 2: // explicit-time query, possibly far ahead
				at := clock + uint64(rng.Int63n(int64(3*T+1)))
				key := uint64(rng.Intn(900))
				a := probe[b.kind](one, key, at)
				if c, d := probe[b.kind](batched, key, at), probe[b.kind](cold, key, at); a != c || a != d {
					t.Fatalf("build %d step %d: answers diverged at t=%d: per key %d, batched %d, cold %d", bi, step, at, a, c, d)
				}
				clock = at
			}
		}
		x, err := one.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"InsertBatch", "the cold Index loop"} {
			y, err := twins[i+1].AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(x, y) {
				t.Errorf("build %d (%s): %s left a different state than per-key Insert", bi, b.kind, name)
			}
		}
	}
}

// phaseModelBF is SHE-BF written straight from Algorithm 1 with the
// arithmetic the kernels used before the one-split clock: per hashed
// location, phase = t + 2·Tcycle − ⌊Tcycle·gid/G⌋, mark = (phase /
// Tcycle) mod 2, age = phase mod Tcycle, j / w for the group. It is the
// reference the closure-free kernel is held to.
type phaseModelBF struct {
	bits  []bool
	marks []bool
	fam   *hashing.Family
	w     int
	T, N  uint64
}

func newPhaseModelBF(m, w, k int, cfg WindowConfig) *phaseModelBF {
	f := &phaseModelBF{bits: make([]bool, m), fam: hashing.NewFamily(k, cfg.Seed), w: w, T: cfg.Tcycle(), N: cfg.N}
	f.marks = make([]bool, (m+w-1)/w)
	for gid := range f.marks {
		f.marks[gid] = (f.phase(gid, 0)/f.T)&1 == 1
	}
	return f
}

func (f *phaseModelBF) phase(gid int, t uint64) uint64 {
	return t + 2*f.T - f.T*uint64(gid)/uint64(len(f.marks))
}

// touch cleans bit j's group if its mark is stale and returns its age.
func (f *phaseModelBF) touch(j int, t uint64) (age uint64) {
	gid := j / f.w
	ph := f.phase(gid, t)
	if m := (ph/f.T)&1 == 1; m != f.marks[gid] {
		f.marks[gid] = m
		for i := gid * f.w; i < (gid+1)*f.w && i < len(f.bits); i++ {
			f.bits[i] = false
		}
	}
	return ph % f.T
}

func (f *phaseModelBF) insertAt(key, t uint64) {
	for i := 0; i < f.fam.K(); i++ {
		j := f.fam.Index(i, key, len(f.bits))
		f.touch(j, t)
		f.bits[j] = true
	}
}

func (f *phaseModelBF) queryAt(key, t uint64) bool {
	for i := 0; i < f.fam.K(); i++ {
		j := f.fam.Index(i, key, len(f.bits))
		if f.touch(j, t) >= f.N && !f.bits[j] {
			return false
		}
	}
	return true
}

// TestBFMatchesPhaseFormulaModel replays random explicit-time streams —
// dense stretches, gaps beyond two cleaning cycles, times near 2⁶² —
// into the kernel and the reference model and requires the same answer
// to every query and the same bits at the end.
func TestBFMatchesPhaseFormulaModel(t *testing.T) {
	for trial, geom := range []struct{ m, w, k int }{{2048, 64, 4}, {1000, 24, 3}, {333, 7, 2}, {64, 1, 1}} {
		cfg := WindowConfig{N: 300, Alpha: 0.7, Seed: uint64(trial)}
		bf, err := NewBF(geom.m, geom.w, geom.k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newPhaseModelBF(geom.m, geom.w, geom.k, cfg)
		rng := rand.New(rand.NewSource(int64(trial)))
		T := cfg.Tcycle()
		now := uint64(0)
		if trial%2 == 1 {
			now = 1<<62 - 3*T
		}
		for step := 0; step < 20000; step++ {
			switch rng.Intn(10) {
			case 0:
				now += uint64(rng.Int63n(int64(4 * T))) // up to 4 cycles: aliasing territory
			default:
				now += uint64(rng.Intn(3))
			}
			key := uint64(rng.Intn(600))
			if rng.Intn(3) == 0 {
				if got, want := bf.QueryAt(key, now), ref.queryAt(key, now); got != want {
					t.Fatalf("geometry %+v step %d t=%d: QueryAt=%v, model says %v", geom, step, now, got, want)
				}
			} else {
				bf.InsertAt(key, now)
				ref.insertAt(key, now)
			}
		}
		for j, want := range ref.bits {
			if (*bfWord(bf, j)&bfMask(bf, j) != 0) != want {
				t.Fatalf("geometry %+v: bit %d differs from the model at the end", geom, j)
			}
		}
	}
}

// TestCountBasedInsertNeverDrifts checks the carried clockTime of the
// count-based path against the explicit-time path over many cycles:
// Insert at tick t must equal InsertAt(key, t).
func TestCountBasedInsertNeverDrifts(t *testing.T) {
	cfg := WindowConfig{N: 97, Alpha: 0.5, Seed: 3}
	a, _ := NewCM(256, 16, 3, 32, cfg)
	b, _ := NewCM(256, 16, 3, 32, cfg)
	rng := rand.New(rand.NewSource(9))
	for tick := uint64(1); tick <= 20*cfg.Tcycle(); tick++ {
		key := uint64(rng.Intn(200))
		a.Insert(key)
		b.InsertAt(key, tick)
		if a.EstimateFrequency(key) != b.EstimateFrequencyAt(key, tick) {
			t.Fatalf("tick %d: count-based and explicit-time estimates differ", tick)
		}
	}
	for i := 0; i < 256; i++ {
		if a.Counter(i) != b.Counter(i) {
			t.Fatalf("counter %d differs after %d ticks", i, 20*cfg.Tcycle())
		}
	}
}
