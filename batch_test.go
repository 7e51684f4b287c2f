package she

import (
	"bytes"
	"encoding"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// batchTarget is a sharded structure seen through the two insert paths
// the differential test compares.
type batchTarget interface {
	Insert(key uint64)
	InsertBatch(keys []uint64, sc *BatchScratch)
	encoding.BinaryMarshaler
}

// TestShardedInsertBatchMatchesInsert feeds one random stream to two
// twins of every sharded structure — per key into one, in random-sized
// batches into the other — and requires byte-identical snapshots: the
// stable partition hands each shard its keys in stream order, so batch
// boundaries must leave no trace. Geometries cover one shard, shard
// counts that do not divide the sizes, and a group size that is not a
// power of two.
func TestShardedInsertBatchMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, p := range []int{1, 2, 3, 8} {
		opts := Options{Window: 1500, Seed: uint64(p)}
		odd := Options{Window: 1500, Seed: uint64(p), GroupSize: 24, Hashes: 3}
		build := map[string]func() (batchTarget, error){
			"bloom":     func() (batchTarget, error) { return NewShardedBloomFilter(1<<13, p, opts) },
			"bloom/w24": func() (batchTarget, error) { return NewShardedBloomFilter(5000, p, odd) },
			"cm":        func() (batchTarget, error) { return NewShardedCountMin(1<<11, p, opts) },
			"cm/w24":    func() (batchTarget, error) { return NewShardedCountMin(1000, p, odd) },
			"hll":       func() (batchTarget, error) { return NewShardedHyperLogLog(1<<8, p, opts) },
		}
		for name, mk := range build {
			one, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			batched, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			var sc BatchScratch
			buf := make([]uint64, 0, 300)
			for sent := 0; sent < 12000; {
				buf = buf[:rng.Intn(cap(buf)+1)]
				for i := range buf {
					buf[i] = uint64(rng.Intn(4000))
					one.Insert(buf[i])
				}
				if rng.Intn(4) == 0 {
					batched.InsertBatch(buf, nil)
				} else {
					batched.InsertBatch(buf, &sc)
				}
				sent += len(buf)
			}
			a, err := one.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b, err := batched.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s, %d shards: InsertBatch left a different state than per-key Insert", name, p)
			}
		}
	}
}

func TestShardOwnsItsCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit platforms")
	}
	if got := unsafe.Sizeof(shard[*BloomFilter]{}); got != 64 {
		t.Fatalf("shard is %d bytes, want one 64-byte cache line", got)
	}
}

// TestShardedInsertBatchConcurrent has several goroutines batch into
// one filter while others insert and query per key (run it with
// -race): every writer's latest keys must be present afterwards.
func TestShardedInsertBatchConcurrent(t *testing.T) {
	s, err := NewShardedBloomFilter(1<<18, 8, Options{Window: 1 << 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const perWriter = 2048
	var wg sync.WaitGroup
	for wtr := 0; wtr < 6; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			base := uint64(wtr) << 32
			var sc BatchScratch
			keys := make([]uint64, 0, 64)
			for i := uint64(0); i < perWriter; i++ {
				if wtr%3 == 2 { // a per-key writer and reader beside the batchers
					s.Insert(base + i)
					s.Query(base + i/2)
					continue
				}
				if keys = append(keys, base+i); len(keys) == cap(keys) {
					s.InsertBatch(keys, &sc)
					keys = keys[:0]
				}
			}
		}(wtr)
	}
	wg.Wait()
	for wtr := 0; wtr < 6; wtr++ {
		for i := uint64(perWriter - 100); i < perWriter; i++ {
			if !s.Query(uint64(wtr)<<32 + i) {
				t.Fatalf("writer %d key %d missing right after insertion", wtr, i)
			}
		}
	}
}
