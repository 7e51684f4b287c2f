package she

import (
	"bytes"
	"encoding"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"she/internal/hashing"
)

// The testdata/parent_* files were written by commit 989e4e8 — the last
// one before the group clock lost its per-location division, the hash
// family began storing mixed seeds and InsertBatch existed — running
// exactly the recipe below with per-key Insert: build the three sharded
// structures, feed them fixtureKeys[:9000], snapshot, answer, feed the
// remaining 1500 keys, answer again. They pin that rewrite (and any
// later one) to that commit's behaviour bit for bit: same snapshot
// bytes from the same stream, same answers from a loaded snapshot, and
// the same state evolution after it, even when the tail arrives through
// InsertBatch.

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
	var want struct{ Before, After fixtureAnswers }
	if err := json.Unmarshal(readFixture(t, "parent_answers.json"), &want); err != nil {
		t.Fatal(err)
	}
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
