package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// driveAndCompare feeds the same post-restore operations to the
// original and the restored structure and requires identical answers.
func TestBFSnapshotRoundTrip(t *testing.T) {
	bf, err := NewBF(1<<13, 64, 8, WindowConfig{N: 1024, Alpha: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(70))
	for i := 0; i < 5000; i++ {
		bf.Insert(uint64(rng.Intn(2000)))
	}
	data, err := bf.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBF(data)
	if err != nil {
		t.Fatal(err)
	}
	// Identical answers through further inserts and queries.
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(3000))
		bf.Insert(k)
		got.Insert(k)
		probe := uint64(rng.Intn(4000))
		if bf.Query(probe) != got.Query(probe) {
			t.Fatalf("step %d: restored BF diverged on key %d", i, probe)
		}
	}
}

func TestBMSnapshotRoundTrip(t *testing.T) {
	bm, err := NewBM(1<<12, 64, WindowConfig{N: 512, Alpha: 0.2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		bm.Insert(uint64(i % 700))
	}
	data, err := bm.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBM(data)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := bm.EstimateCardinality(), got.EstimateCardinality(); a != b {
		t.Fatalf("estimates diverge: %v vs %v", a, b)
	}
	for i := 0; i < 2000; i++ {
		k := uint64(i % 900)
		bm.Insert(k)
		got.Insert(k)
	}
	if a, b := bm.EstimateCardinality(), got.EstimateCardinality(); a != b {
		t.Fatalf("estimates diverge after further inserts: %v vs %v", a, b)
	}
}

func TestHLLSnapshotRoundTrip(t *testing.T) {
	h, err := NewHLL(512, WindowConfig{N: 2048, Alpha: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		h.Insert(uint64(i % 3000))
	}
	data, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalHLL(data)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := h.EstimateCardinality(), got.EstimateCardinality(); a != b {
		t.Fatalf("estimates diverge: %v vs %v", a, b)
	}
}

func TestCMSnapshotRoundTrip(t *testing.T) {
	cm, err := NewCM(1<<12, 64, 8, 32, WindowConfig{N: 1024, Alpha: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8000; i++ {
		cm.Insert(uint64(i % 150))
	}
	data, err := cm.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCM(data)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 150; k++ {
		if a, b := cm.EstimateFrequency(k), got.EstimateFrequency(k); a != b {
			t.Fatalf("key %d: %d vs %d", k, a, b)
		}
	}
}

func TestMHSnapshotRoundTrip(t *testing.T) {
	mh, err := NewMH(128, WindowConfig{N: 1024, Alpha: 0.2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		mh.InsertA(uint64(i % 300))
		mh.InsertB(uint64(i%300 + 50))
	}
	data, err := mh.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalMH(data)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mh.Similarity(), got.Similarity(); a != b {
		t.Fatalf("similarity diverges: %v vs %v", a, b)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	bf, err := NewBF(1024, 64, 4, WindowConfig{N: 100, Alpha: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := bf.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XXXX"), data[4:]...),
		"truncated":  data[:len(data)/2],
		"trailing":   append(append([]byte{}, data...), 0xFF),
		"wrong kind": func() []byte { d := append([]byte{}, data...); d[4] = kindMH; return d }(),
	}
	for name, d := range cases {
		if _, err := UnmarshalBF(d); err == nil {
			t.Fatalf("%s snapshot accepted", name)
		}
	}
}

func TestSnapshotCrossKindRejected(t *testing.T) {
	bm, err := NewBM(1024, 64, WindowConfig{N: 100, Alpha: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := bm.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalCM(data); err == nil {
		t.Fatal("BM snapshot restored as CM")
	}
}

// TestCMSnapshotRefusesOtherWidths: counters are 32-bit cells, so a
// count-min snapshot whose width field says anything else is refused,
// naming the width, before any cell is read.
func TestCMSnapshotRefusesOtherWidths(t *testing.T) {
	cm, err := NewCM(256, 64, 4, 32, WindowConfig{N: 100, Alpha: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cm.Insert(7)
	snap, err := cm.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalCM(snap); err != nil {
		t.Fatalf("the 32-bit snapshot: %v", err)
	}
	for _, width := range []uint32{0, 4, 8, 16, 64} {
		_, err := UnmarshalCM(withWidth(snap, width))
		if want := fmt.Sprintf("%d-bit counters", width); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("width %d: err = %v, want one naming %q", width, err, want)
		}
	}
}
