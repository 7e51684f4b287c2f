package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// decoded is what FuzzUnmarshal needs from a structure a decoder
// accepted.
type decoded interface {
	AppendBinary(dst []byte) ([]byte, error)
}

func decoder[T decoded](unmarshal func([]byte) (T, error)) func([]byte) (decoded, error) {
	return func(data []byte) (decoded, error) {
		s, err := unmarshal(data)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// unmarshalers are the five snapshot decoders; the first byte of a
// FuzzUnmarshal input picks one.
var unmarshalers = []func([]byte) (decoded, error){
	decoder(UnmarshalBF), decoder(UnmarshalBM), decoder(UnmarshalHLL), decoder(UnmarshalCM), decoder(UnmarshalMH),
}

// checkDecoded holds every core decoder to the same contract: a "SHE1"
// snapshot is refused by scheme, and an accepted one re-encodes to a
// fixed point after one round trip and operates without panicking.
func checkDecoded(t *testing.T, decode func([]byte) (decoded, error), data []byte) {
	got, err := decode(data)
	if len(data) >= 4 && string(data[:4]) == "SHE1" && !errors.Is(err, ErrHashScheme) {
		t.Fatalf("a SHE1 snapshot was not refused by scheme: err = %v", err)
	}
	if err != nil {
		return
	}
	once, err := got.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := decode(once)
	if err != nil {
		t.Fatalf("the re-encoding of an accepted snapshot does not decode: %v", err)
	}
	if twice, err := again.AppendBinary(nil); err != nil || !bytes.Equal(once, twice) {
		t.Fatalf("re-encoding is not a fixed point after one round trip (err = %v)", err)
	}
	// A snapshot the decoder accepts must be operable.
	switch s := got.(type) {
	case *BF:
		s.Insert(42)
		_ = s.Query(42)
		_ = s.MemoryBits()
	case *CM:
		s.Insert(7)
		_ = s.EstimateFrequency(7)
	case interface{ Insert(uint64) }:
		s.Insert(42)
	case *MH:
		s.InsertA(42)
		_ = s.Similarity()
	}
}

// FuzzUnmarshalBF hammers the bloom filter's decoder alone. (Seeded with
// a valid snapshot so mutations explore the interesting prefix space;
// `go test` runs the seeds, `go test -fuzz` explores.)
func FuzzUnmarshalBF(f *testing.F) {
	bf, err := NewBF(1024, 64, 4, WindowConfig{N: 100, Alpha: 1, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		bf.Insert(i)
	}
	valid, err := bf.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SHE2"))
	f.Add(append([]byte("SHE1"), valid[4:]...)) // the same bytes as position scheme 1 would have headed them
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, unmarshalers[0], data)
	})
}

// FuzzUnmarshalCM mirrors FuzzUnmarshalBF for the counter sketch, whose
// header carries an extra width field worth stressing.
func FuzzUnmarshalCM(f *testing.F) {
	cm, err := NewCM(256, 64, 4, 32, WindowConfig{N: 100, Alpha: 1, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		cm.Insert(i % 40)
	}
	valid, err := cm.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:20])
	f.Add(withWidth(valid, 8)) // refused: 32-bit counters only

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, unmarshalers[3], data)
	})
}

// withWidth is a count-min snapshot with its counter width field
// (offset 57) rewritten.
func withWidth(snap []byte, width uint32) []byte {
	out := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint32(out[57:], width)
	return out
}

// FuzzUnmarshal hammers the five snapshot decoders with arbitrary bytes:
// the first byte picks the decoder, the rest is the snapshot. A decoder
// must refuse a "SHE1" snapshot by scheme, and must either reject the
// input or return a structure that re-encodes to a fixed point after one
// round trip and whose operations do not panic. (Seeded with a valid
// snapshot of each structure, its truncation and its scheme-1 twin, so
// mutations explore the interesting prefix space; `go test` runs the
// seeds, `go test -fuzz` explores.)
func FuzzUnmarshal(f *testing.F) {
	cfg := WindowConfig{N: 100, Alpha: 1, Seed: 1}
	bf, err1 := NewBF(1024, 64, 4, cfg)
	bm, err2 := NewBM(1024, 64, cfg)
	hll, err3 := NewHLL(256, cfg)
	cm, err4 := NewCM(256, 64, 4, 32, cfg)
	mh, err5 := NewMH(64, cfg)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		bf.Insert(i)
		bm.Insert(i)
		hll.Insert(i)
		cm.Insert(i % 40)
		mh.InsertA(i)
		mh.InsertB(i + 100)
	}
	for sel, s := range []decoded{bf, bm, hll, cm, mh} {
		valid, err := s.AppendBinary([]byte{byte(sel)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add([]byte{byte(sel)})
		f.Add(append([]byte{byte(sel)}, snapshotMagic...))
		f.Add(append([]byte{byte(sel), 'S', 'H', 'E', '1'}, valid[5:]...)) // the same bytes as position scheme 1 would have headed them
		f.Add(valid[:1+len(valid)/2])
		// A header whose cell count (offset 45) or, in a bloom or a
		// count-min, whose hash count (53) claims 2^31 − 1: refused before
		// anything that size is allocated.
		for _, off := range []int{1 + 45, 1 + 53} {
			huge := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(huge[off:], 1<<31-1)
			f.Add(huge)
		}
	}
	cmSnap, err := cm.AppendBinary([]byte{3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{3}, withWidth(cmSnap[1:], 8)...)) // refused: 32-bit counters only

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkDecoded(t, unmarshalers[int(data[0])%len(unmarshalers)], data[1:])
	})
}
