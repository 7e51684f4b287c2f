// Package she is a Go implementation of SHE — the Sliding Hardware
// Estimator of Wu et al. (ICPP 2022) — a generic framework that turns
// classic fixed-window sketches into sliding-window sketches using
// approximate cleaning with per-group 1-bit time marks, the design that
// makes them implementable on hardware pipelines (FPGA/ASIC/
// programmable switches) under small-SRAM, single-stage-access and
// bounded-access-width constraints.
//
// Five sliding-window data structures are provided, one per
// measurement task:
//
//   - BloomFilter — membership: "did key k appear among the last N
//     items?" (one-sided error: no false negatives).
//   - Bitmap — cardinality via linear counting, for windows whose
//     distinct count is comparable to the bit budget.
//   - HyperLogLog — cardinality for massive windows.
//   - CountMin — per-key frequency within the window (never
//     underestimates).
//   - MinHash — Jaccard similarity between two streams' windows.
//
// All structures share the same model: a window of the most recent N
// items (count-based; use the *At methods with your own timestamps for
// time-based windows), a cleaning slack α (the cleaning cycle is
// (1+α)·N — larger α keeps more mature cells for queries but lets
// out-dated items linger longer), and a seed that derives every hash
// function.
//
// # Quick start
//
//	opts := she.Options{Window: 1 << 16, Seed: 42}
//	bf, err := she.NewBloomFilter(1<<20, opts) // 1 Mbit filter
//	if err != nil { ... }
//	bf.Insert(key)        // advance the window by one item
//	ok := bf.Query(key)   // membership in the last 65536 items
//
// # Batches and concurrency
//
// ShardedBloomFilter, ShardedCountMin and ShardedHyperLogLog partition
// a stream across P independently locked shards by key hash and are
// safe for concurrent use. A caller holding many keys at once should
// hand them over together:
//
//	var scratch she.BatchScratch // reusable; one per goroutine
//	sbf.InsertBatch(keys, &scratch)
//
// InsertBatch partitions the slice by shard (a stable counting sort
// into the scratch) and locks each shard once per batch instead of
// once per key. Every shard absorbs its keys in slice order, so the
// structure ends up in exactly the state — byte for byte under
// MarshalBinary — that calling Insert on each key in turn would leave.
// BloomFilter, CountMin and HyperLogLog have the unsharded
// InsertBatch(keys) with the same guarantee.
//
// See the examples/ directory for complete programs, DESIGN.md for the
// architecture and EXPERIMENTS.md for the reproduction of the paper's
// evaluation. To serve sketches over the network instead of embedding
// the library, run cmd/shed — a TCP daemon hosting named sharded
// sketches (see internal/server for the protocol).
package she
