package she

import (
	"fmt"
	"slices"
	"sync"

	"she/internal/hashing"
)

// The sharded wrappers partition a stream across P independent SHE
// structures by key hash — the software analogue of replicating the
// hardware pipeline. Each shard serializes its own operations with a
// mutex, so different keys proceed in parallel on different cores.
//
// Window semantics under sharding: each shard's count-based window
// covers the last Window/P items routed to it, by key. Only for evenly
// spread keys is that the stream's last ~Window items: under skew a hot
// shard's window is shorter, forgetting in-window keys (3.9–6.6 % false
// negatives on Zipf keys at P = 8), and a light one's longer. Per-key
// guarantees hold shard-locally, for that window (ROADMAP item 9).

// shardSketch is what the wrappers need from the structure in a shard.
type shardSketch interface {
	InsertBatch(keys []uint64)
	MemoryBits() int
	ResidentBytes() int
	Stats() SketchStats
	AppendBinary(dst []byte) ([]byte, error)
}

// shard is one partition and the mutex that serializes it, padded to a
// cache line of its own: at 16 bytes four shards would share a line,
// and a goroutine locking one shard would keep invalidating the line
// under goroutines working on the other three.
type shard[T any] struct {
	mu sync.Mutex
	s  T
	_  [64 - 16]byte
}

// sharded is the part of the three wrappers that does not depend on
// what a shard holds: routing, batching, and the aggregate views.
type sharded[T shardSketch] struct {
	shards []shard[T]
	salt   uint64 // keys the routing hash U64(key, salt)
	mixed  uint64 // Mix64(salt), so that routing a key costs one Mix64
	kind   byte   // the snapshot's structure tag
}

func makeSharded[T shardSketch](kind byte, p int, salt uint64) sharded[T] {
	return sharded[T]{shards: make([]shard[T], p), salt: salt, mixed: hashing.Mix64(salt), kind: kind}
}

// newSharded builds p shards of the kind with build, handing each its
// own seed and a 1/p share of the window; salt keys the routing hash.
func newSharded[T shardSketch](kind byte, p int, opts Options, salt uint64, build func(Options) (T, error)) (sharded[T], error) {
	if p <= 0 {
		return sharded[T]{}, fmt.Errorf("she: shard count must be positive, got %d", p)
	}
	if opts.Window < uint64(p) {
		return sharded[T]{}, fmt.Errorf("she: window %d smaller than shard count %d", opts.Window, p)
	}
	s := makeSharded[T](kind, p, hashing.Mix64(opts.Seed^salt))
	shardOpts := opts
	shardOpts.Window = opts.Window / uint64(p)
	for i := range s.shards {
		shardOpts.Seed = opts.Seed + uint64(i)*0x9e3779b97f4a7c15
		sk, err := build(shardOpts)
		if err != nil {
			return sharded[T]{}, err
		}
		s.shards[i].s = sk
	}
	return s, nil
}

// route returns the index of key's shard.
func (s *sharded[T]) route(key uint64) int {
	return hashing.ReduceRange(hashing.Mix64(key^s.mixed), len(s.shards))
}

// BatchScratch is the working memory of a sharded InsertBatch. The
// zero value is ready to use; a caller that keeps one per goroutine
// and passes it to every call batches without allocating. It must not
// be shared between concurrent calls.
type BatchScratch struct {
	keys  []uint64 // the batch, partitioned by shard
	shard []uint32 // shard[i] = shard of the batch's i-th key
	end   []int    // end[j] = end of shard j's run in keys
}

// InsertBatch records keys, in slice order, leaving the structure in
// exactly the state a loop of Insert calls would: the batch is
// partitioned by shard with a stable counting sort, so every shard
// absorbs its keys in the order the slice lists them, under one lock
// acquisition per shard the batch touches instead of one per key. Safe
// for concurrent use; sc may be nil, at the cost of allocating the
// scratch.
func (s *sharded[T]) InsertBatch(keys []uint64, sc *BatchScratch) {
	if len(keys) == 0 {
		return
	}
	if len(keys) == 1 || len(s.shards) == 1 {
		sh := &s.shards[s.route(keys[0])]
		sh.mu.Lock()
		sh.s.InsertBatch(keys)
		sh.mu.Unlock()
		return
	}
	if sc == nil {
		sc = new(BatchScratch)
	}
	sc.keys = slices.Grow(sc.keys[:0], len(keys))
	sc.shard = slices.Grow(sc.shard[:0], len(keys))
	sc.end = slices.Grow(sc.end[:0], len(s.shards))[:len(s.shards)]
	part, shardOf, end := sc.keys[:len(keys)], sc.shard[:len(keys)], sc.end
	clear(end)
	for i, k := range keys {
		j := s.route(k)
		shardOf[i] = uint32(j)
		end[j]++
	}
	sum := 0
	for j, n := range end {
		end[j] = sum // the run's start, advanced to its end by the placement
		sum += n
	}
	for i, k := range keys {
		j := shardOf[i]
		part[end[j]] = k
		end[j]++
	}
	lo := 0
	for j, hi := range end {
		if hi > lo {
			sh := &s.shards[j]
			sh.mu.Lock()
			sh.s.InsertBatch(part[lo:hi])
			sh.mu.Unlock()
		}
		lo = hi
	}
}

// MemoryBits totals the shards' footprints.
func (s *sharded[T]) MemoryBits() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].s.MemoryBits()
	}
	return total
}

// ResidentBytes totals what the shards hold allocated (see
// BloomFilter.ResidentBytes).
func (s *sharded[T]) ResidentBytes() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].s.ResidentBytes()
	}
	return total
}

// Shards returns the shard count.
func (s *sharded[T]) Shards() int { return len(s.shards) }

// Stats aggregates the shards' window state (counts summed, cycle
// position averaged); safe for concurrent use.
func (s *sharded[T]) Stats() SketchStats {
	return aggregateStats(len(s.shards), func(i int) SketchStats {
		sh := &s.shards[i]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.s.Stats()
	})
}

// ShardedBloomFilter is a concurrency-safe sliding-window Bloom filter:
// P shards, each holding bits/P bits and a window of Window/P items.
type ShardedBloomFilter struct {
	sharded[*BloomFilter]
}

// NewShardedBloomFilter splits a filter of the given total bits and
// options across p shards.
func NewShardedBloomFilter(bits, p int, opts Options) (*ShardedBloomFilter, error) {
	s, err := newSharded(shardedKindBloom, p, opts, 0x5a4d, func(o Options) (*BloomFilter, error) { return NewBloomFilter(bits/p, o) })
	if err != nil {
		return nil, err
	}
	return &ShardedBloomFilter{s}, nil
}

// Insert records key; safe for concurrent use.
func (s *ShardedBloomFilter) Insert(key uint64) {
	sh := &s.shards[s.route(key)]
	sh.mu.Lock()
	sh.s.Insert(key)
	sh.mu.Unlock()
}

// Query reports whether key may have appeared within the window; safe
// for concurrent use.
func (s *ShardedBloomFilter) Query(key uint64) bool {
	sh := &s.shards[s.route(key)]
	sh.mu.Lock()
	ok := sh.s.Query(key)
	sh.mu.Unlock()
	return ok
}

// ShardedCountMin is a concurrency-safe sliding-window Count-Min
// sketch: P shards, each holding counters/P counters and a window of
// Window/P items.
type ShardedCountMin struct {
	sharded[*CountMin]
}

// NewShardedCountMin splits a sketch of the given total counters and
// options across p shards.
func NewShardedCountMin(counters, p int, opts Options) (*ShardedCountMin, error) {
	s, err := newSharded(shardedKindCM, p, opts, 0xc43d, func(o Options) (*CountMin, error) { return NewCountMin(counters/p, o) })
	if err != nil {
		return nil, err
	}
	return &ShardedCountMin{s}, nil
}

// Insert records one occurrence of key; safe for concurrent use.
func (s *ShardedCountMin) Insert(key uint64) {
	sh := &s.shards[s.route(key)]
	sh.mu.Lock()
	sh.s.Insert(key)
	sh.mu.Unlock()
}

// Frequency estimates key's occurrence count within the window; safe
// for concurrent use.
func (s *ShardedCountMin) Frequency(key uint64) uint64 {
	sh := &s.shards[s.route(key)]
	sh.mu.Lock()
	v := sh.s.Frequency(key)
	sh.mu.Unlock()
	return v
}

// ShardedHyperLogLog is a concurrency-safe sliding-window cardinality
// estimator: keys are partitioned across P shard estimators and the
// shard estimates are summed (hash partitioning splits the distinct set
// uniformly, so the sum is an unbiased estimate of the whole).
type ShardedHyperLogLog struct {
	sharded[*HyperLogLog]
}

// NewShardedHyperLogLog splits registers total registers across p
// shards.
func NewShardedHyperLogLog(registers, p int, opts Options) (*ShardedHyperLogLog, error) {
	s, err := newSharded(shardedKindHLL, p, opts, 0x411, func(o Options) (*HyperLogLog, error) { return NewHyperLogLog(registers/p, o) })
	if err != nil {
		return nil, err
	}
	return &ShardedHyperLogLog{s}, nil
}

// Insert records key; safe for concurrent use.
func (s *ShardedHyperLogLog) Insert(key uint64) {
	sh := &s.shards[s.route(key)]
	sh.mu.Lock()
	sh.s.Insert(key)
	sh.mu.Unlock()
}

// Cardinality sums the shard estimates; safe for concurrent use.
func (s *ShardedHyperLogLog) Cardinality() float64 {
	total := 0.0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.s.Cardinality()
		sh.mu.Unlock()
	}
	return total
}
