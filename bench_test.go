package she

// One benchmark per table and figure of the paper, plus the ablations
// DESIGN.md §5 calls out and per-structure insert microbenchmarks.
//
// The figure benchmarks run the corresponding experiment driver at
// QuickScale and report the wall time of regenerating that figure; run
// `go run ./cmd/shebench <figN>` for full-scale numbers and the actual
// series. The microbenchmarks report per-insert cost (the quantity
// behind Figs. 10–11) under -benchmem.

import (
	"strconv"
	"testing"

	"she/internal/core"
	"she/internal/experiments"
	"she/internal/sketch"
	"she/internal/stream"
)

func BenchmarkTable2Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2()
	}
}

func BenchmarkTable3Frequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3()
	}
}

func BenchmarkTableConstraints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableConstraints()
	}
}

func BenchmarkFig5Stability(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig5(sc)
	}
}

func BenchmarkFig6WindowSize(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig6(sc)
	}
}

func BenchmarkFig7Alpha(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig7(sc)
	}
}

func BenchmarkFig8BloomParameters(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig8(sc)
	}
}

func BenchmarkFig9Accuracy(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig9(sc)
	}
}

func BenchmarkFig10Throughput(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig10(sc)
	}
}

func BenchmarkFig11ThroughputVsIdeal(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig11(sc)
	}
}

func BenchmarkAblationCleaning(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationCleaning(sc)
	}
}

func BenchmarkAblationGroupSize(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationGroupSize(sc)
	}
}

func BenchmarkAblationSelection(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationSelection(sc)
	}
}

// benchKeys pre-draws a CAIDA-like key set shared by the insert
// microbenchmarks.
func benchKeys(n int) []uint64 {
	gen := stream.CAIDA(1)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = gen.Next()
	}
	return keys
}

const benchWindow = 1 << 16

func BenchmarkInsertSHEBloomFilter(b *testing.B) {
	keys := benchKeys(1 << 16)
	bf, err := NewBloomFilter(1<<20, Options{Window: benchWindow, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Insert(keys[i&(1<<16-1)])
	}
}

func BenchmarkInsertIdealBloomFilter(b *testing.B) {
	keys := benchKeys(1 << 16)
	bf := sketch.NewBloomFilter(1<<20, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Insert(keys[i&(1<<16-1)])
	}
}

func BenchmarkInsertSHEBitmap(b *testing.B) {
	keys := benchKeys(1 << 16)
	bm, err := NewBitmap(1<<16, Options{Window: benchWindow, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Insert(keys[i&(1<<16-1)])
	}
}

func BenchmarkInsertIdealBitmap(b *testing.B) {
	keys := benchKeys(1 << 16)
	bm := sketch.NewBitmap(1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Insert(keys[i&(1<<16-1)])
	}
}

func BenchmarkInsertSHEHyperLogLog(b *testing.B) {
	keys := benchKeys(1 << 16)
	h, err := NewHyperLogLog(4096, Options{Window: benchWindow, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(keys[i&(1<<16-1)])
	}
}

func BenchmarkInsertIdealHyperLogLog(b *testing.B) {
	keys := benchKeys(1 << 16)
	h := sketch.NewHLL(4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(keys[i&(1<<16-1)])
	}
}

func BenchmarkInsertSHECountMin(b *testing.B) {
	keys := benchKeys(1 << 16)
	cm, err := NewCountMin(1<<18, Options{Window: benchWindow, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Insert(keys[i&(1<<16-1)])
	}
}

func BenchmarkInsertIdealCountMin(b *testing.B) {
	keys := benchKeys(1 << 16)
	cm := sketch.NewCountMin(1<<18, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Insert(keys[i&(1<<16-1)])
	}
}

func BenchmarkInsertSHEMinHash(b *testing.B) {
	keys := benchKeys(1 << 12)
	mh, err := NewMinHash(128, Options{Window: benchWindow, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mh.InsertA(keys[i&(1<<12-1)])
	}
}

func BenchmarkInsertIdealMinHash(b *testing.B) {
	keys := benchKeys(1 << 12)
	mh := sketch.NewMinHash(128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mh.Insert(keys[i&(1<<12-1)])
	}
}

func BenchmarkQuerySHEBloomFilter(b *testing.B) {
	keys := benchKeys(1 << 16)
	bf, err := NewBloomFilter(1<<20, Options{Window: benchWindow, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		bf.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Query(keys[i&(1<<16-1)])
	}
}

func BenchmarkQuerySHECountMin(b *testing.B) {
	keys := benchKeys(1 << 16)
	cm, err := NewCountMin(1<<18, Options{Window: benchWindow, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		cm.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Frequency(keys[i&(1<<16-1)])
	}
}

func BenchmarkCardinalityQuerySHEBitmap(b *testing.B) {
	keys := benchKeys(1 << 16)
	bm, err := NewBitmap(1<<16, Options{Window: benchWindow, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		bm.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Cardinality()
	}
}

// BenchmarkSweepVsLazyInsert quantifies the cleaning-strategy ablation
// at the microbenchmark level: the sweeping (software) cleaner pays for
// advancing the cleaning position on every insert.
func BenchmarkSweepVsLazyInsert(b *testing.B) {
	keys := benchKeys(1 << 16)
	cfg := core.WindowConfig{N: benchWindow, Alpha: 3, Seed: 1}
	b.Run("lazy", func(b *testing.B) {
		bf, err := core.NewBF(1<<20, 64, 8, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bf.Insert(keys[i&(1<<16-1)])
		}
	})
	b.Run("sweep", func(b *testing.B) {
		bf, err := core.NewSweepBF(1<<20, 8, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bf.Insert(keys[i&(1<<16-1)])
		}
	})
}

func BenchmarkInsertSHECountMinCU(b *testing.B) {
	keys := benchKeys(1 << 16)
	cu, err := NewCountMinCU(1<<18, Options{Window: benchWindow, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cu.Insert(keys[i&(1<<16-1)])
	}
}

// The batch benchmarks time the path shed runs — Sharded*.InsertBatch
// at bench/'s geometry (8 shards; 4 Mi bits, 256 Ki counters, 16 Ki
// registers; window 2²⁰; Zipf 1.2 keys), in batches of one MINSERT line
// (64 keys) and of one sketch's share of a 64-line flush (1 365) — so
// ROADMAP's ratio to Ideal can be read where the server spends its
// time. The Ideal twins have no batch entry point and take the same
// slices key by key. Compare as interleaved runs; not a CI gate.
func benchInsertBatch(b *testing.B, insert func(keys []uint64)) {
	gen := stream.NewZipf(1.2, 600_000, 1)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = gen.Next()
	}
	for _, size := range []int{64, 1365} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := i * size % (len(keys) - size)
				insert(keys[lo : lo+size])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/key")
		})
	}
}

var batchOpts = Options{Window: 1 << 20, Seed: 1}

func BenchmarkInsertBatchSHEBloomFilter(b *testing.B) {
	s, err := NewShardedBloomFilter(1<<22, 8, batchOpts)
	if err != nil {
		b.Fatal(err)
	}
	var sc BatchScratch
	benchInsertBatch(b, func(keys []uint64) { s.InsertBatch(keys, &sc) })
}

func BenchmarkInsertBatchIdealBloomFilter(b *testing.B) {
	s := sketch.NewBloomFilter(1<<22, 8, 1)
	benchInsertBatch(b, func(keys []uint64) {
		for _, k := range keys {
			s.Insert(k)
		}
	})
}

func BenchmarkInsertBatchSHECountMin(b *testing.B) {
	s, err := NewShardedCountMin(1<<18, 8, batchOpts)
	if err != nil {
		b.Fatal(err)
	}
	var sc BatchScratch
	benchInsertBatch(b, func(keys []uint64) { s.InsertBatch(keys, &sc) })
}

func BenchmarkInsertBatchIdealCountMin(b *testing.B) {
	s := sketch.NewCountMin(1<<18, 8, 1)
	benchInsertBatch(b, func(keys []uint64) {
		for _, k := range keys {
			s.Insert(k)
		}
	})
}

func BenchmarkInsertBatchSHEHyperLogLog(b *testing.B) {
	s, err := NewShardedHyperLogLog(1<<14, 8, batchOpts)
	if err != nil {
		b.Fatal(err)
	}
	var sc BatchScratch
	benchInsertBatch(b, func(keys []uint64) { s.InsertBatch(keys, &sc) })
}

func BenchmarkInsertBatchIdealHyperLogLog(b *testing.B) {
	s := sketch.NewHLL(1<<14, 1)
	benchInsertBatch(b, func(keys []uint64) {
		for _, k := range keys {
			s.Insert(k)
		}
	})
}

func BenchmarkShardedBloomFilterParallel(b *testing.B) {
	bf, err := NewShardedBloomFilter(1<<22, 8, Options{Window: benchWindow, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		k := uint64(0)
		for pb.Next() {
			k++
			bf.Insert(k * 2654435761)
		}
	})
}

func BenchmarkAblationBeta(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationBeta(sc)
	}
}

func BenchmarkAblationConservativeUpdate(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationConservativeUpdate(sc)
	}
}

func BenchmarkModelValidation(b *testing.B) {
	sc := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.ModelValidation(sc)
	}
}
