package main

import (
	"math/rand"
	"strconv"

	"she/internal/hashing"
	"she/internal/stream"
)

// Every server hosts these three sketches; the sizes are the issue's
// shared inputs, the same on every workload so a number measured on one
// can be set against a number measured on another.
const (
	sketchBits      = 4194304
	sketchCounters  = 262144
	sketchRegisters = 16384
	sketchWindow    = 1 << 20
	sketchShards    = 8
)

type sketchDef struct{ name, kind, size string }

var sketchDefs = []sketchDef{
	{"b", "bloom", "bits=" + strconv.Itoa(sketchBits)},
	{"c", "cm", "counters=" + strconv.Itoa(sketchCounters)},
	{"h", "hll", "registers=" + strconv.Itoa(sketchRegisters)},
}

// params are the SKETCH.CREATE parameters after name and kind.
func (d sketchDef) params() []string {
	return []string{d.size, "window=" + strconv.Itoa(sketchWindow), "shards=" + strconv.Itoa(sketchShards)}
}

const (
	keysPerLine  = 64 // MINSERT width of the ingest workloads
	ingestLines  = 16384
	ingestFlush  = 64 // MINSERT lines per pipelined flush
	queryFlush   = 128
	queryFlushes = 2048 // per connection, then the script repeats
	pacedKeys    = 8    // MINSERT width of the paced writer
	pacedWrites  = 65536
	pacedReads   = 32768
	loadEpoch    = 65536 // keys per flow population in the load streams
)

// kind says what a command is and therefore what its reply must be.
type kind uint8

const (
	kMinsert   kind = iota // ":<nkeys>"
	kInsert                // ":1"
	kQueryBHit             // bloom query of an in-window key: ":1", or it is a false negative
	kQueryB                // bloom query of a never-inserted key: ":0" or ":1"
	kQueryC                // cm query: ":<n>"
	kCard                  // "+<float>"
)

// isWrite splits the latency samples: writes are the ack_* metrics,
// reads the query_* metrics.
func (k kind) isWrite() bool { return k == kMinsert || k == kInsert }

type req struct {
	end   int // offset just past this command's newline in script.buf
	kind  kind
	nkeys int32
}

// script is a rendered command sequence: every request byte exists
// before a clock starts, so the generator's work while measuring is
// write, read and compare.
type script struct {
	buf  []byte
	reqs []req
}

func (s *script) start(i int) int {
	if i == 0 {
		return 0
	}
	return s.reqs[i-1].end
}

// bytes returns commands [i, j) as they go on the wire.
func (s *script) bytes(i, j int) []byte { return s.buf[s.start(i):s.reqs[j-1].end] }

func (s *script) add(k kind, nkeys int, verb, name string, keys ...uint64) {
	s.buf = append(s.buf, verb...)
	s.buf = append(s.buf, ' ')
	s.buf = append(s.buf, name...)
	for _, key := range keys {
		s.buf = append(s.buf, ' ')
		s.buf = strconv.AppendUint(s.buf, key, 10)
	}
	s.buf = append(s.buf, '\n')
	s.reqs = append(s.reqs, req{end: len(s.buf), kind: k, nkeys: int32(nkeys)})
}

// subSeed derives an independent seed for one generator of a workload.
func subSeed(seed uint64, tag string) uint64 {
	h := seed
	for _, c := range []byte(tag) {
		h = hashing.Mix64(h ^ uint64(c))
	}
	return h
}

// zipfKeys is the shared key source: the CAIDA-like generator
// (Zipf 1.2 over 600 000 ranks, ranks scrambled by Mix64), restarted
// with a fresh scramble every epoch keys. One scramble for a whole run
// would let the seed decide which shards the few hottest flows hash to,
// and that alone moved ingest throughput and the accuracy figures by a
// tenth from seed to seed; a run of many epochs averages over
// placements, so a seed changes the bytes and not the workload. As
// decimal tokens the keys are 17 to 20 digits, the tokenizer load a
// real caller presents.
func zipfKeys(seed uint64, n, epoch int) []uint64 {
	keys := make([]uint64, n)
	var g *stream.Zipf
	for i := range keys {
		if i%epoch == 0 {
			g = stream.NewZipf(1.2, 600_000, hashing.Mix64(seed+uint64(i/epoch)))
		}
		keys[i] = g.Next()
	}
	return keys
}

// absentKey returns the i-th key of a sequence that no Zipf generator
// emits: the generators mix ranks below 2^20, this mixes values from
// 2^40 up, and Mix64 is a bijection.
func absentKey(salt uint64, i int) uint64 {
	return hashing.Mix64((uint64(1)<<40 + uint64(i)) ^ salt)
}

// ingestInput is the request stream of ingest_mem, ingest_wal and
// ingest_repl, which send the same bytes.
type ingestInput struct {
	sc   script
	keys []uint64 // line i carries keys[i*64:(i+1)*64] to sketchDefs[i%3]
}

func genIngest(seed uint64) *ingestInput {
	in := &ingestInput{keys: zipfKeys(subSeed(seed, "ingest"), ingestLines*keysPerLine, loadEpoch)}
	in.sc.buf = make([]byte, 0, ingestLines*(keysPerLine*21+16))
	for i := 0; i < ingestLines; i++ {
		in.sc.add(kMinsert, keysPerLine, "MINSERT", sketchDefs[i%3].name, in.keys[i*keysPerLine:(i+1)*keysPerLine]...)
	}
	return in
}

// lineKeys returns the keys of line i.
func (in *ingestInput) lineKeys(i int) []uint64 {
	return in.keys[i*keysPerLine : (i+1)*keysPerLine]
}

// queryInput is query_mix: one cyclic script per connection and the
// keys set-up loads into each sketch.
type queryInput struct {
	conns   [2]script
	preload [3][]uint64 // per sketch, in insert order
}

// genQuery renders query_mix. A queried "present" key is one the same
// connection inserts somewhere in its own cyclic script, and set-up
// loads every script's inserts last, so such a key is never more than
// one script cycle (about 35 000 inserts per sketch) old: far inside
// even the busiest shard's share of the 1 048 576-item window, and a
// bloom query for it that answers 0 is a false negative.
func genQuery(seed uint64) *queryInput {
	in := &queryInput{}
	n := queryFlush * queryFlushes
	insertKeys := zipfKeys(subSeed(seed, "query-insert"), 2*n/4, loadEpoch)
	salt := subSeed(seed, "query-absent")
	nextInsert, nextAbsent := 0, 0
	var inserted [2][3][]uint64
	for c := range in.conns {
		rng := rand.New(rand.NewSource(int64(subSeed(seed, "query-mix") + uint64(c))))
		kinds := make([]kind, n)
		target := make([]int, n)
		inserts := 0
		for i := range kinds {
			switch u := rng.Float64(); {
			case rng.Intn(1024) == 0:
				kinds[i] = kCard
			case u < 0.4:
				kinds[i], target[i] = kQueryB, 0
			case u < 0.8:
				kinds[i], target[i] = kQueryC, 1
			default:
				kinds[i], target[i] = kInsert, inserts%3
				inserted[c][target[i]] = append(inserted[c][target[i]], insertKeys[nextInsert+inserts])
				inserts++
			}
		}
		sc := &in.conns[c]
		sc.buf = make([]byte, 0, n*36)
		ins := 0
		for i, k := range kinds {
			switch k {
			case kCard:
				sc.add(kCard, 0, "SKETCH.CARD", "h")
			case kInsert:
				sc.add(kInsert, 1, "SKETCH.INSERT", sketchDefs[target[i]].name, insertKeys[nextInsert+ins])
				ins++
			default:
				own := inserted[c][target[i]]
				if rng.Intn(2) == 0 {
					if k == kQueryB {
						k = kQueryBHit
					}
					sc.add(k, 1, "SKETCH.QUERY", sketchDefs[target[i]].name, own[rng.Intn(len(own))])
				} else {
					sc.add(k, 1, "SKETCH.QUERY", sketchDefs[target[i]].name, absentKey(salt, nextAbsent))
					nextAbsent++
				}
			}
		}
		nextInsert += inserts
	}
	fill := zipfKeys(subSeed(seed, "query-preload"), sketchWindow, loadEpoch)
	for s := range in.preload {
		tail := len(inserted[0][s]) + len(inserted[1][s])
		in.preload[s] = append(in.preload[s], fill[:sketchWindow-tail]...)
		in.preload[s] = append(in.preload[s], inserted[0][s]...)
		in.preload[s] = append(in.preload[s], inserted[1][s]...)
	}
	return in
}

// pacedInput is paced_wal: the writer connection's requests, the
// reader connection's, and the writer's keys per sketch, which set-up
// loads so that a "present" read is in the window from the first
// request on. The writer repeats its script every 16 s at 4000 req/s,
// which keeps every key of it in the window.
type pacedInput struct {
	writer, reader script
	preload        [3][]uint64
}

func genPaced(seed uint64) *pacedInput {
	in := &pacedInput{}
	keys := zipfKeys(subSeed(seed, "paced-write"), pacedWrites*pacedKeys, loadEpoch)
	in.writer.buf = make([]byte, 0, pacedWrites*(pacedKeys*21+16))
	for i := 0; i < pacedWrites; i++ {
		k := keys[i*pacedKeys : (i+1)*pacedKeys]
		in.writer.add(kMinsert, pacedKeys, "MINSERT", sketchDefs[i%3].name, k...)
		in.preload[i%3] = append(in.preload[i%3], k...)
	}
	rng := rand.New(rand.NewSource(int64(subSeed(seed, "paced-read"))))
	salt := subSeed(seed, "paced-absent")
	for i := 0; i < pacedReads; i++ {
		s := i % 2 // b, c
		k := kQueryC
		if s == 0 {
			k = kQueryB
		}
		if rng.Intn(2) == 0 {
			if k == kQueryB {
				k = kQueryBHit
			}
			in.reader.add(k, 1, "SKETCH.QUERY", sketchDefs[s].name, in.preload[s][rng.Intn(len(in.preload[s]))])
		} else {
			in.reader.add(k, 1, "SKETCH.QUERY", sketchDefs[s].name, absentKey(salt, i))
		}
	}
	return in
}

// accuracyInput is the accuracy pass: the keys inserted, in order, and
// the never-inserted keys the bloom filter is probed with.
type accuracyInput struct {
	keys   []uint64
	absent []uint64
}

func genAccuracy(seed uint64) *accuracyInput {
	in := &accuracyInput{keys: zipfKeys(subSeed(seed, "accuracy"), accWindows*accWindow, accEpoch), absent: make([]uint64, accAbsent)}
	salt := subSeed(seed, "accuracy-absent")
	for i := range in.absent {
		in.absent[i] = absentKey(salt, i)
	}
	return in
}
