package main

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"she"
	"she/internal/audit"
	"she/internal/core"
	"she/internal/hashing"
	"she/internal/obs"
	"she/internal/repl"
	"she/internal/server"
	"she/internal/sketch"
	"she/internal/wal"
)

const (
	probeCalls = 1 << 20 // calls per probe
	probeBatch = 1024    // calls per span

	// One shard of the benchmark's sketches: what a core kernel holds.
	shardBits      = sketchBits / sketchShards
	shardCounters  = sketchCounters / sketchShards
	shardRegisters = sketchRegisters / sketchShards
	shardWindow    = sketchWindow / sketchShards
)

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// probeInput is a workload's own keys and lines, cut to what the
// probes replay: 2^20 keys (repeated if the workload has fewer), its
// write commands and its read commands.
type probeInput struct {
	keys   []uint64
	writes [][]byte // command lines without the newline
	wkeys  int      // keys all of writes carry
	reads  [][]byte
}

func probeInputFor(sp *spec, seed uint64) *probeInput {
	in := &probeInput{}
	var scripts []*script
	var keys []uint64
	switch sp.name {
	case "query_mix":
		q := genQuery(seed)
		scripts, keys = []*script{&q.conns[0], &q.conns[1]}, q.preload[0]
	case "paced_wal":
		p := genPaced(seed)
		scripts = []*script{&p.writer, &p.reader}
		for _, k := range p.preload {
			keys = append(keys, k...)
		}
	default:
		g := genIngest(seed)
		scripts, keys = []*script{&g.sc}, g.keys
	}
	for len(in.keys) < probeCalls {
		in.keys = append(in.keys, keys[:min(len(keys), probeCalls-len(in.keys))]...)
	}
	for _, sc := range scripts {
		for i, rq := range sc.reqs {
			line := sc.bytes(i, i+1)
			line = line[:len(line)-1]
			switch {
			case rq.kind.isWrite() && in.wkeys < probeCalls:
				in.writes = append(in.writes, line)
				in.wkeys += int(rq.nkeys)
			case rq.kind != kCard && !rq.kind.isWrite() && len(in.reads) < probeCalls/4:
				in.reads = append(in.reads, line)
			}
		}
	}
	// The ingest workloads send no reads; probe the read path with
	// queries for their own keys.
	for i := 0; len(in.reads) < probeCalls/4; i++ {
		in.reads = append(in.reads, strconv.AppendUint([]byte("SKETCH.QUERY "+sketchDefs[i%2].name+" "), in.keys[i], 10))
	}
	return in
}

// runProbes times the layers from inside this process, on the
// workload's own keys and lines, single-threaded, and adds the P
// metrics to m. Nested layers (server.Sketch around she.Sharded* around
// core.* around hashing) cannot be separated by spans inside one call,
// so a layer's self time there is its figure minus the same keys timed
// on a twin instance one layer down.
func runProbes(sp *spec, opt options, rec *recorder, m map[string]float64) error {
	in := probeInputFor(sp, opt.seed)
	keys := in.keys

	// hashing
	tokens := make([][]byte, probeBatch)
	for i := range tokens {
		tokens[i] = strconv.AppendUint(nil, keys[i], 10)
	}
	m["hashing.bob64_ns"] = rec.probe("hashing.bob64", probeCalls, probeBatch, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += hashing.BOBHash64(tokens[i%probeBatch], 0x5e)
		}
	})
	fam := hashing.NewFamily(core.DefaultHashes, 1)
	m["hashing.family_index_ns"] = rec.probe("hashing.family_index", probeCalls, probeBatch, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += uint64(fam.Index(i&7, keys[i], shardBits))
		}
	})

	// core kernels at one shard's size, and their fixed-window twins
	bf, err := core.NewBF(shardBits, core.DefaultGroupSize, core.DefaultHashes, core.WindowConfig{N: shardWindow, Alpha: core.DefaultAlphaBF, Seed: 1})
	if err != nil {
		return err
	}
	cm, err := core.NewCM(shardCounters, core.DefaultGroupSize, core.DefaultHashes, 32, core.WindowConfig{N: shardWindow, Alpha: core.DefaultAlphaCM, Seed: 1})
	if err != nil {
		return err
	}
	hll, err := core.NewHLL(shardRegisters, core.WindowConfig{N: shardWindow, Alpha: core.DefaultAlphaTwoSided, Seed: 1})
	if err != nil {
		return err
	}
	bm, err := core.NewBM(shardBits, core.DefaultGroupSize, core.WindowConfig{N: shardWindow, Alpha: core.DefaultAlphaTwoSided, Seed: 1})
	if err != nil {
		return err
	}
	mh, err := core.NewMH(128, core.WindowConfig{N: shardWindow, Alpha: core.DefaultAlphaTwoSided, Seed: 1})
	if err != nil {
		return err
	}
	each := func(name string, call func(key uint64)) float64 {
		return rec.probe(name, probeCalls, probeBatch, func(lo, hi int) {
			for _, k := range keys[lo:hi] {
				call(k)
			}
		})
	}
	m["core.bf_insert_ns"] = each("core.bf_insert", bf.Insert)
	m["core.bf_query_ns"] = each("core.bf_query", func(k uint64) {
		if bf.Query(k) {
			sink++
		}
	})
	m["core.cm_insert_ns"] = each("core.cm_insert", cm.Insert)
	m["core.cm_query_ns"] = each("core.cm_query", func(k uint64) { sink += cm.EstimateFrequency(k) })
	m["core.hll_insert_ns"] = each("core.hll_insert", hll.Insert)
	m["core.hll_card_us"] = rec.probe("core.hll_card", 4096, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += uint64(hll.EstimateCardinality())
		}
	}) / 1e3
	m["core.bm_insert_ns"] = each("core.bm_insert", bm.Insert)
	m["core.mh_insert_ns"] = each("core.mh_insert", mh.InsertA)

	ibf := sketch.NewBloomFilter(shardBits, core.DefaultHashes, 1)
	icm := sketch.NewCountMin(shardCounters, core.DefaultHashes, 1)
	ihll := sketch.NewHLL(shardRegisters, 1)
	m["sketch.bloom_insert_ns"] = each("sketch.bloom_insert", ibf.Insert)
	m["sketch.bloom_query_ns"] = each("sketch.bloom_query", func(k uint64) {
		if ibf.MightContain(k) {
			sink++
		}
	})
	m["sketch.cm_insert_ns"] = each("sketch.cm_insert", icm.Insert)
	m["sketch.cm_query_ns"] = each("sketch.cm_query", func(k uint64) { sink += icm.EstimateFrequency(k) })
	m["sketch.hll_insert_ns"] = each("sketch.hll_insert", ihll.Insert)
	m["core.bf_insert_vs_ideal"] = m["core.bf_insert_ns"] / m["sketch.bloom_insert_ns"]
	m["core.cm_insert_vs_ideal"] = m["core.cm_insert_ns"] / m["sketch.cm_insert_ns"]
	m["core.hll_insert_vs_ideal"] = m["core.hll_insert_ns"] / m["sketch.hll_insert_ns"]
	m["core.bf_query_vs_insert"] = m["core.bf_query_ns"] / m["core.bf_insert_ns"]

	// she: the sharded wrappers, i.e. the shard lock
	opts := she.Options{Window: sketchWindow, Seed: 1}
	sbf, err := she.NewShardedBloomFilter(sketchBits, sketchShards, opts)
	if err != nil {
		return err
	}
	scm, err := she.NewShardedCountMin(sketchCounters, sketchShards, opts)
	if err != nil {
		return err
	}
	shll, err := she.NewShardedHyperLogLog(sketchRegisters, sketchShards, opts)
	if err != nil {
		return err
	}
	m["she.sharded_bf_insert_ns"] = each("she.sharded_bf_insert", sbf.Insert)
	m["she.sharded_cm_insert_ns"] = each("she.sharded_cm_insert", scm.Insert)
	m["she.sharded_hll_insert_ns"] = each("she.sharded_hll_insert", shll.Insert)
	m["she.sharded_bf_query_ns"] = each("she.sharded_bf_query", func(k uint64) {
		if sbf.Query(k) {
			sink++
		}
	})
	m["she.sharded_cm_query_ns"] = each("she.sharded_cm_query", func(k uint64) { sink += scm.Frequency(k) })
	shardedMean := (m["she.sharded_bf_insert_ns"] + m["she.sharded_cm_insert_ns"] + m["she.sharded_hll_insert_ns"]) / 3
	coreMean := (m["core.bf_insert_ns"] + m["core.cm_insert_ns"] + m["core.hll_insert_ns"]) / 3
	m["she.shard_self_ns"] = shardedMean - coreMean
	var rounds []float64
	for round := 0; round < 8; round++ {
		lo := round * (probeCalls / 8)
		id := rec.begin("she.sharded_bf_insert_2g", 0, 0, probeCalls/8)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(part []uint64) {
				defer wg.Done()
				for _, k := range part {
					sbf.Insert(k)
				}
			}(keys[lo+g*(probeCalls/16) : lo+(g+1)*(probeCalls/16)])
		}
		wg.Wait()
		rec.end(id)
		s := rec.spans[id-1]
		rounds = append(rounds, float64(s.End-s.Start)/float64(probeCalls/8))
	}
	m["she.sharded_bf_insert_2g_ns"] = median(rounds)

	// obs
	m["obs.nanotime_ns"] = rec.probe("obs.nanotime", probeCalls, probeBatch, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += uint64(obs.Nanotime())
		}
	})
	var h obs.Histogram
	m["obs.hist_observe_ns"] = rec.probe("obs.hist_observe", probeCalls, probeBatch, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h.Observe(time.Duration(keys[i] >> 44))
		}
	})

	// server, wal, repl: the request path, stage by stage
	reg := server.NewRegistry(audit.Config{})
	twins := map[string]func(uint64){"b": sbf.Insert, "c": scm.Insert, "h": shll.Insert}
	for _, d := range sketchDefs {
		kv, err := server.ParseKV(d.params())
		if err != nil {
			return err
		}
		if err := reg.Create(d.name, d.kind, kv); err != nil {
			return err
		}
	}
	log, _, err := wal.Open(filepath.Join(opt.tmp, "probe-wal-"+sp.name), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	ship := bufio.NewWriter(io.Discard)

	// Each request is a run of the workload's write lines carrying about
	// 1024 keys: parse, look the sketch up, insert, append to the log,
	// frame for the follower; every fourth request, one Sync, as a
	// group commit would. Child spans nest under the request's span.
	var parsed []uint64
	var names [][]byte
	var counts []int
	walBytes0 := log.BytesSinceCheckpoint()
	for next, reqID := 0, 1; next < len(in.writes); reqID++ {
		first := next
		root := rec.begin("request", 0, reqID, 0)
		parsed, names, counts = parsed[:0], names[:0], counts[:0]
		id := rec.begin("server.parse", root, reqID, 0)
		for ; next < len(in.writes) && len(parsed) < probeBatch; next++ {
			cmd, err := server.ParseCommand(string(in.writes[next]))
			if err != nil {
				return fmt.Errorf("probe: own line does not parse: %w", err)
			}
			for _, tok := range cmd.Args[1:] {
				parsed = append(parsed, server.ParseKey(tok))
			}
			names = append(names, []byte(cmd.Args[0]))
			counts = append(counts, len(cmd.Args)-1)
		}
		rec.end(id)
		rec.spans[id-1].Calls = len(parsed)
		rec.spans[root-1].Calls = len(parsed)

		id = rec.begin("server.registry_get", root, reqID, len(names))
		sks := make([]*server.Sketch, len(names))
		for i, n := range names {
			sks[i] = reg.GetBytes(n)
		}
		rec.end(id)

		id = rec.begin("server.sketch_insert", root, reqID, len(parsed))
		k := 0
		for i, sk := range sks {
			for n := counts[i]; n > 0; n-- {
				sk.Insert(parsed[k])
				k++
			}
		}
		rec.end(id)

		// The same keys through the bare sharded twins: what Sketch.Insert
		// adds is the difference.
		id = rec.begin("she.sharded_insert_twin", root, reqID, len(parsed))
		k = 0
		for i, name := range names {
			insert := twins[string(name)]
			for n := counts[i]; n > 0; n-- {
				insert(parsed[k])
				k++
			}
		}
		rec.end(id)

		id = rec.begin("wal.append", root, reqID, len(parsed))
		if err := log.AppendBatch(in.writes[first:next], nil); err != nil {
			return err
		}
		rec.end(id)
		if reqID%4 == 0 {
			id = rec.begin("wal.sync", root, reqID, 1)
			if err := log.Sync(); err != nil {
				return err
			}
			rec.end(id)
		}
		id = rec.begin("repl.write_record", root, reqID, next-first)
		for _, line := range in.writes[first:next] {
			if err := repl.WriteRecord(ship, wal.Cursor{Gen: 1, Seg: 1, Off: int64(next)}, line, 0); err != nil {
				return err
			}
		}
		rec.end(id)
		rec.end(root)
	}
	if err := log.Sync(); err != nil {
		return err
	}
	selfNs, calls := selfByName(rec.spans)
	per := func(name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(selfNs[name]) / float64(calls[name])
	}
	m["server.parse_minsert_ns_per_key"] = per("server.parse")
	m["server.registry_get_ns"] = per("server.registry_get")
	m["server.sketch_insert_ns"] = per("server.sketch_insert")
	m["server.sketch_self_ns"] = per("server.sketch_insert") - per("she.sharded_insert_twin")
	m["wal.append_ns_per_key"] = per("wal.append")
	m["wal.sync_us"] = per("wal.sync") / 1e3
	m["wal.bytes_per_key"] = float64(log.BytesSinceCheckpoint()-walBytes0) / float64(calls["server.parse"])
	m["repl.write_record_ns"] = per("repl.write_record")

	var frame []byte
	m["wal.encode_ns_per_rec"] = rec.probe("wal.encode", len(in.writes)/probeBatch*probeBatch, probeBatch, func(lo, hi int) {
		for _, line := range in.writes[lo:hi] {
			frame = wal.EncodeRecord(frame[:0], line)
		}
	})
	// the read path
	bsk, csk := reg.GetBytes([]byte("b")), reg.GetBytes([]byte("c"))
	var qkeys []uint64
	m["server.parse_query_ns"] = rec.probe("server.parse_query", len(in.reads)/probeBatch*probeBatch, probeBatch, func(lo, hi int) {
		for _, line := range in.reads[lo:hi] {
			cmd, err := server.ParseCommand(string(line))
			if err != nil || len(cmd.Args) != 2 {
				continue
			}
			qkeys = append(qkeys, server.ParseKey(cmd.Args[1]))
		}
	})
	m["server.sketch_query_ns"] = rec.probe("server.sketch_query", len(qkeys)/probeBatch*probeBatch, probeBatch, func(lo, hi int) {
		for i, k := range qkeys[lo:hi] {
			sk := bsk
			if i&1 == 1 {
				sk = csk
			}
			v, _ := sk.Query(k) // bloom and cm both answer Query
			sink += uint64(v)
		}
	})
	m["server.snapshot_ms"] = rec.probe("server.snapshot", 8, 1, func(lo, hi int) {
		for _, name := range []string{"b", "c", "h"} {
			data, err := reg.GetBytes([]byte(name)).MarshalBinary()
			if err == nil {
				sink += uint64(len(data))
			}
		}
	}) / 1e6

	// recon: what the probed layers explain of the server's measured
	// CPU per key. The request path's stages that the workload uses:
	// the WAL stages only count where the primary runs with -wal.
	if sp.name == "ingest_mem" || sp.name == "ingest_wal" {
		explained := per("server.parse") + per("server.sketch_insert") + per("server.registry_get")/keysPerLine
		if sp.wal {
			explained += per("wal.append") + per("wal.sync")/(4*probeBatch)
		}
		if cpu := m["cpu_us_per_op"]; cpu > 0 {
			m["recon.explained_share"] = explained / (cpu * 1e3)
		}
	}
	return nil
}
