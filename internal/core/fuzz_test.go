package core

import (
	"errors"
	"testing"
)

// FuzzUnmarshalBF hammers the snapshot decoder with arbitrary bytes: it
// must either reject the input or return a structure whose operations
// do not panic. (Seeded with a valid snapshot so mutations explore the
// interesting prefix space; `go test` runs the seeds, `go test -fuzz`
// explores.)
func FuzzUnmarshalBF(f *testing.F) {
	bf, err := NewBF(1024, 64, 4, WindowConfig{N: 100, Alpha: 1, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		bf.Insert(i)
	}
	valid, err := bf.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SHE2"))
	f.Add(append([]byte("SHE1"), valid[4:]...)) // the same bytes as position scheme 1 would have headed them
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalBF(data)
		if len(data) >= 4 && string(data[:4]) == "SHE1" && !errors.Is(err, ErrHashScheme) {
			t.Fatalf("a SHE1 snapshot was not refused by scheme: err = %v", err)
		}
		if err != nil {
			return
		}
		// A snapshot the decoder accepts must be operable.
		got.Insert(42)
		_ = got.Query(42)
		_ = got.MemoryBits()
	})
}

// FuzzUnmarshalCM mirrors FuzzUnmarshalBF for the counter sketch, whose
// header carries an extra width field worth stressing.
func FuzzUnmarshalCM(f *testing.F) {
	cm, err := NewCM(256, 64, 4, 8, WindowConfig{N: 100, Alpha: 1, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		cm.Insert(i % 40)
	}
	valid, err := cm.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:20])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalCM(data)
		if err != nil {
			return
		}
		got.Insert(7)
		_ = got.EstimateFrequency(7)
	})
}
