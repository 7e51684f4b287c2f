package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"she/internal/hashing"
)

// flatModel is SHE-BF or SHE-CM written the way the snapshot format
// lays them out: one flat array of cells, cell j in group j/w, and the
// phase formula for marks and ages (as phaseModelBF). It is the
// reference both kernel loops are held to, at every group size.
type flatModel struct {
	cells []uint64
	marks []bool
	w     int
	T, N  uint64
	bloom bool
}

func newFlatModel(bloom bool, cells, w int, cfg WindowConfig) *flatModel {
	f := &flatModel{cells: make([]uint64, cells), marks: make([]bool, (cells+w-1)/w), w: w, T: cfg.Tcycle(), N: cfg.N, bloom: bloom}
	for gid := range f.marks {
		f.marks[gid] = (f.phase(gid, 0)/f.T)&1 == 1
	}
	return f
}

func (f *flatModel) phase(gid int, t uint64) uint64 {
	return t + 2*f.T - f.T*uint64(gid)/uint64(len(f.marks))
}

// touch cleans cell j's group if its mark is stale and returns its age.
func (f *flatModel) touch(j int, t uint64) uint64 {
	gid := j / f.w
	ph := f.phase(gid, t)
	if m := (ph/f.T)&1 == 1; m != f.marks[gid] {
		f.marks[gid] = m
		clear(f.cells[gid*f.w : min((gid+1)*f.w, len(f.cells))])
	}
	return ph % f.T
}

func (f *flatModel) insertAt(idx []int, t uint64) {
	for _, j := range idx {
		f.touch(j, t)
		if f.bloom {
			f.cells[j] = 1
		} else {
			f.cells[j] = min(f.cells[j]+1, 1<<32-1)
		}
	}
}

// queryAt is BF's query (1 or 0, stopping at the first mature 0 — or,
// with all, the first 0 — as the kernel does, so later groups stay
// uncleaned) or CM.EstimateFrequencyAt.
func (f *flatModel) queryAt(idx []int, t uint64, all bool) uint64 {
	minMature, minAll := ^uint64(0), ^uint64(0)
	for _, j := range idx {
		age := f.touch(j, t)
		if f.bloom && f.cells[j] == 0 && (all || age >= f.N) {
			return 0
		}
		if age >= f.N {
			minMature = min(minMature, f.cells[j])
		}
		minAll = min(minAll, f.cells[j])
	}
	switch {
	case f.bloom:
		return 1
	case minMature != ^uint64(0):
		return minMature
	}
	return minAll
}

// servedTwin is one structure under test, BF or CM, with its general
// loops reachable: InsertBatch and the queries pick the loop by w,
// insertAny and probe's general flag force the general one.
type servedTwin interface {
	kernel
	Stats() SketchStats
	insertAny(now clockTime, keys []uint64) clockTime
	probe(key, t uint64, general, all bool) uint64
	parts() (*tickClock, *groupClock, *hashing.Family)
}

// probe is QueryAt (all: the QueryAllCells rule) as 1 or 0, through
// query or, with general, queryAny.
func (f *BF) probe(key, t uint64, general, all bool) uint64 {
	q := f.query
	if general {
		q = f.queryAny
	}
	if q(key, f.gc.at(t), all) {
		return 1
	}
	return 0
}

func (f *BF) parts() (*tickClock, *groupClock, *hashing.Family) { return &f.tickClock, f.gc, f.fam }

// probe is EstimateFrequencyAt: Count-Min has one query loop.
func (c *CM) probe(key, t uint64, _, _ bool) uint64 { return c.EstimateFrequencyAt(key, t) }

func (c *CM) parts() (*tickClock, *groupClock, *hashing.Family) { return &c.tickClock, c.gc, c.fam }

// generalBatch is InsertBatch through the general loop.
func generalBatch(s servedTwin, keys []uint64) {
	if tc, gc, _ := s.parts(); len(keys) > 0 {
		tc.tick += uint64(len(keys))
		tc.now = s.insertAny(gc.next(tc.now), keys)
	}
}

// TestServedGeometryBatchMatchesGeneral drives, for SHE-BF and SHE-CM at
// every w in {1, 8, 24, 48, 64, 100, 512} and k in {1, 3, 8}, three
// twins with one random schedule: the structure's own entry points
// (the served-geometry loops at w = 64: insert, and BF's query), the
// general loops forced, and the flat reference model. Count-based
// batches interleave with explicit-time inserts and queries after jumps
// of up to five cleaning cycles, so §5.1's mark aliasing is hit, and
// half the queries land where the key's first group is exactly N old,
// the edge of maturity. Every answer must agree along the way; at the end the two structures' stats and snapshot bytes must
// be equal, and the snapshot's cell array must be the model's cells in
// the flat layout the format has always stored, bit for bit.
func TestServedGeometryBatchMatchesGeneral(t *testing.T) {
	cfg := WindowConfig{N: 300, Alpha: 1, Seed: 17}
	T := cfg.Tcycle()
	for _, bloom := range []bool{true, false} {
		for _, w := range []int{1, 8, 24, 48, 64, 100, 512} {
			for _, k := range []int{1, 3, 8} {
				cells := max(700, 5*w+w/3+1) // a short last group
				name := fmt.Sprintf("bloom=%v/w=%d/k=%d", bloom, w, k)
				mk := func() (servedTwin, error) {
					if bloom {
						return NewBF(cells, w, k, cfg)
					}
					return NewCM(cells, w, k, 32, cfg)
				}
				served, err1 := mk()
				general, err2 := mk()
				if err := errors.Join(err1, err2); err != nil {
					t.Fatal(err)
				}
				model := newFlatModel(bloom, cells, w, cfg)
				_, gc, fam := general.parts()
				index := func(key uint64) []int {
					idx := make([]int, k)
					for i := range idx {
						idx[i] = fam.Index(i, key, cells)
					}
					return idx
				}
				rng := rand.New(rand.NewSource(int64(w*10 + k)))
				tick, clock := uint64(0), uint64(0)
				for step := 0; step < 400; step++ {
					switch rng.Intn(4) {
					case 0: // a batch of count-based inserts
						keys := make([]uint64, rng.Intn(200))
						for i := range keys {
							keys[i] = uint64(rng.Intn(1500))
							tick++
							model.insertAt(index(keys[i]), tick)
						}
						served.InsertBatch(keys)
						generalBatch(general, keys)
					case 1: // an explicit-time insert after a jump of 0..5 cycles
						clock += uint64(rng.Int63n(int64(5*T + 1)))
						key := uint64(rng.Intn(1500))
						served.InsertAt(key, clock)
						general.insertAny(gc.at(clock), []uint64{key})
						model.insertAt(index(key), clock)
					case 2, 3: // an explicit-time query, possibly far ahead
						at := clock + uint64(rng.Int63n(int64(3*T+1)))
						key := uint64(rng.Intn(1500))
						if rng.Intn(2) == 0 { // when the key's first group is exactly N old
							at = (clock/T+1+uint64(rng.Intn(3)))*T + gc.off(index(key)[0]/w) + cfg.N
						}
						all := bloom && rng.Intn(4) == 0 // QueryAllCells' rule
						a, b, want := served.probe(key, at, false, all), general.probe(key, at, true, all), model.queryAt(index(key), at, all)
						if a != want || b != want {
							t.Fatalf("%s step %d: at t=%d (all cells %v) served loop answers %d, general %d, model %d", name, step, at, all, a, b, want)
						}
						clock = at
					}
				}
				if a, b := served.Stats(), general.Stats(); a != b {
					t.Fatalf("%s: stats differ: served %+v, general %+v", name, a, b)
				}
				x, err := served.AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				if y, err := general.AppendBinary(nil); err != nil || !bytes.Equal(x, y) {
					t.Fatalf("%s: the two loops left different snapshots (err %v)", name, err)
				}
				var flat []byte // the model's cells as the format stores them
				if bloom {
					flat = make([]byte, 8*((cells+63)/64))
					for j, v := range model.cells {
						flat[j/8] |= byte(v) << (j % 8)
					}
				} else {
					flat = make([]byte, 8*((cells+1)/2+1))
					for j, v := range model.cells {
						binary.LittleEndian.PutUint32(flat[4*j:], uint32(v))
					}
				}
				if !bytes.Equal(x[len(x)-len(flat):], flat) {
					t.Fatalf("%s: snapshot cells differ from the model's flat array", name)
				}
				decode := unmarshalers[3] // UnmarshalCM
				if bloom {
					decode = unmarshalers[0] // UnmarshalBF
				}
				back, err := decode(x)
				if err != nil {
					t.Fatal(err)
				}
				if z, err := back.AppendBinary(nil); err != nil || !bytes.Equal(x, z) {
					t.Fatalf("%s: the snapshot does not decode back to its own bytes (err %v)", name, err)
				}
			}
		}
	}
}
