package she

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"she/internal/core"
	"she/internal/hashing"
)

// The testdata/parent_* files pin the kernels to one commit's behaviour
// bit for bit: same snapshot bytes from the same stream, same answers
// from a loaded snapshot, and the same state evolution after it, even
// when the tail arrives through InsertBatch. They were written by the
// commit that introduced position scheme 2 (hashing.Locate, snapshot
// magic "SHE2") running exactly the recipe below with per-key Insert:
// build the three sharded structures, feed them fixtureKeys[:9000],
// snapshot, answer, feed the remaining 1500 keys, answer again. To
// regenerate them — only ever together with a new position scheme and a
// new snapshot magic — run
//
//	go test -run TestParentCommitSnapshotFixture -update-fixtures .
//
// The testdata/scheme1_* files are the same recipe's snapshots as
// commit 989e4e8 wrote them under scheme 1 (a full mix per location,
// magic "SHE1"); they used to be parent_* and are kept as what a
// scheme-1 snapshot looks like to every route that must refuse one.

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata/parent_* from this build's kernels")

func fixtureKeys(n int) []uint64 {
	keys := make([]uint64, n)
	s := uint64(0x5eed)
	for i := range keys {
		keys[i] = hashing.SplitMix64(&s) % 1500
	}
	return keys
}

type fixtureAnswers struct {
	Bloom string   `json:"bloom"` // Query(0..2047) as '0'/'1'
	CM    []uint64 `json:"cm"`    // Frequency(0..511)
	HLL   uint64   `json:"hll"`   // math.Float64bits(Cardinality())
}

func fixtureAnswer(b *ShardedBloomFilter, c *ShardedCountMin, h *ShardedHyperLogLog) fixtureAnswers {
	var a fixtureAnswers
	buf := make([]byte, 2048)
	for k := range buf {
		buf[k] = '0'
		if b.Query(uint64(k)) {
			buf[k] = '1'
		}
	}
	a.Bloom = string(buf)
	for k := 0; k < 512; k++ {
		a.CM = append(a.CM, c.Frequency(uint64(k)))
	}
	a.HLL = math.Float64bits(h.Cardinality())
	return a
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParentCommitSnapshotFixture(t *testing.T) {
	keys := fixtureKeys(10500)

	// The same stream through today's code gives the parent's bytes.
	b, err := NewShardedBloomFilter(1<<15, 4, Options{Window: 4096, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewShardedCountMin(1<<12, 3, Options{Window: 3000, GroupSize: 48, Hashes: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewShardedHyperLogLog(1<<9, 2, Options{Window: 2048, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:9000] {
		b.Insert(k)
		c.Insert(k)
		h.Insert(k)
	}
	if *updateFixtures {
		writeFixtures(t, b, c, h, keys[9000:])
	}
	for name, m := range map[string]encoding.BinaryMarshaler{"bloom": b, "cm": c, "hll": h} {
		got, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, readFixture(t, "parent_"+name+".snap")) {
			t.Errorf("%s: snapshot of the fixture stream differs from the one the parent commit wrote", name)
		}
	}

	// The parent's snapshots load, answer as the parent answered, and
	// keep evolving as the parent's structures did.
	var want struct{ Before, After fixtureAnswers }
	if err := json.Unmarshal(readFixture(t, "parent_answers.json"), &want); err != nil {
		t.Fatal(err)
	}
	if b, err = UnmarshalShardedBloomFilter(readFixture(t, "parent_bloom.snap")); err != nil {
		t.Fatal(err)
	}
	if c, err = UnmarshalShardedCountMin(readFixture(t, "parent_cm.snap")); err != nil {
		t.Fatal(err)
	}
	if h, err = UnmarshalShardedHyperLogLog(readFixture(t, "parent_hll.snap")); err != nil {
		t.Fatal(err)
	}
	if got := fixtureAnswer(b, c, h); !reflect.DeepEqual(got, want.Before) {
		t.Errorf("loaded parent snapshots answer differently from the parent commit")
	}
	rng := rand.New(rand.NewSource(3))
	var sc BatchScratch
	for tail := keys[9000:]; len(tail) > 0; {
		n := min(1+rng.Intn(200), len(tail))
		b.InsertBatch(tail[:n], &sc)
		c.InsertBatch(tail[:n], &sc)
		h.InsertBatch(tail[:n], &sc)
		tail = tail[n:]
	}
	if got := fixtureAnswer(b, c, h); !reflect.DeepEqual(got, want.After) {
		t.Errorf("after 1500 more keys the structures answer differently from the parent commit")
	}
}

// writeFixtures records the three structures' snapshots as they stand
// after the first 9000 keys and, on copies restored from those
// snapshots, their answers before and after tail, fed per key.
func writeFixtures(t *testing.T, b *ShardedBloomFilter, c *ShardedCountMin, h *ShardedHyperLogLog, tail []uint64) {
	t.Helper()
	write := func(name string, data []byte, err error) []byte {
		if err == nil {
			err = os.WriteFile(filepath.Join("testdata", name), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bb, err := b.MarshalBinary()
	b, err = UnmarshalShardedBloomFilter(write("parent_bloom.snap", bb, err))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := c.MarshalBinary()
	c, err = UnmarshalShardedCountMin(write("parent_cm.snap", cb, err))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := h.MarshalBinary()
	h, err = UnmarshalShardedHyperLogLog(write("parent_hll.snap", hb, err))
	if err != nil {
		t.Fatal(err)
	}
	var ans struct{ Before, After fixtureAnswers }
	ans.Before = fixtureAnswer(b, c, h)
	for _, k := range tail {
		b.Insert(k)
		c.Insert(k)
		h.Insert(k)
	}
	ans.After = fixtureAnswer(b, c, h)
	js, err := json.Marshal(ans)
	write("parent_answers.json", js, err)
}

// TestScheme1SnapshotRefused: a snapshot whose cells were placed under
// position scheme 1 is refused by name, whichever structure it holds,
// and never decoded into a structure that would miss its own keys.
func TestScheme1SnapshotRefused(t *testing.T) {
	_, errB := UnmarshalShardedBloomFilter(readFixture(t, "scheme1_bloom.snap"))
	_, errC := UnmarshalShardedCountMin(readFixture(t, "scheme1_cm.snap"))
	_, errH := UnmarshalShardedHyperLogLog(readFixture(t, "scheme1_hll.snap"))
	for kind, err := range map[string]error{"bloom": errB, "cm": errC, "hll": errH} {
		if !errors.Is(err, core.ErrHashScheme) {
			t.Errorf("%s: scheme-1 snapshot: err = %v, want core.ErrHashScheme", kind, err)
		}
	}
	// A lone shard's snapshot — what the unsharded Unmarshal* take — too.
	data := readFixture(t, "scheme1_hll.snap")
	if _, err := UnmarshalHyperLogLog(data[4+1+8+4+4:][:binary.LittleEndian.Uint32(data[4+1+8+4:])]); !errors.Is(err, core.ErrHashScheme) {
		t.Errorf("unsharded hll: scheme-1 snapshot: err = %v, want core.ErrHashScheme", err)
	}
}
