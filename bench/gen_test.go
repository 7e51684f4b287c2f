package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

var workloadNames = []string{"ingest_mem", "ingest_wal", "ingest_repl", "query_mix", "paced_wal"}

// A seed fixes every byte a workload sends; another seed changes them.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloadNames {
		if specByName(w) == nil {
			t.Fatalf("no workload %q", w)
		}
		if w == "ingest_wal" || w == "ingest_repl" {
			continue // the same bytes as ingest_mem, by construction; checked below
		}
		a, b, c := inputDigest(w, 1), inputDigest(w, 1), inputDigest(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 rendered twice gives %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 give the same bytes (%s)", w, a)
		}
	}
	if inputDigest("ingest_mem", 3) != inputDigest("ingest_wal", 3) || inputDigest("ingest_mem", 3) != inputDigest("ingest_repl", 3) {
		t.Error("the three ingest workloads must send the same bytes")
	}
}

func TestIngestShape(t *testing.T) {
	in := genIngest(1)
	if len(in.sc.reqs) != ingestLines || len(in.keys) != ingestLines*keysPerLine {
		t.Fatalf("%d lines, %d keys", len(in.sc.reqs), len(in.keys))
	}
	for i, want := range []string{"MINSERT b ", "MINSERT c ", "MINSERT h ", "MINSERT b "} {
		line := in.sc.bytes(i, i+1)
		if !bytes.HasPrefix(line, []byte(want)) || bytes.Count(line, []byte(" ")) != keysPerLine+1 || line[len(line)-1] != '\n' {
			t.Errorf("line %d = %.40q…, want %q and %d keys", i, line, want, keysPerLine)
		}
	}
	short := 0
	for _, k := range in.keys {
		if k < 1e16 {
			short++
		}
	}
	if short > len(in.keys)/500 {
		t.Errorf("%d of %d keys have under 17 digits; the tokenizer load should be 17 to 20", short, len(in.keys))
	}
}

// query_mix: the stated mix, half the queried keys present, and every
// "present" bloom key really among the connection's own inserts.
func TestQueryMixShape(t *testing.T) {
	in := genQuery(1)
	for c := range in.conns {
		sc := &in.conns[c]
		count := map[kind]int{}
		inserted := map[string]bool{}
		for i, rq := range sc.reqs {
			count[rq.kind]++
			if rq.kind == kInsert {
				f := bytes.Fields(sc.bytes(i, i+1))
				inserted[string(f[1])+" "+string(f[2])] = true
			}
		}
		n := float64(len(sc.reqs))
		if len(sc.reqs) != queryFlush*queryFlushes {
			t.Fatalf("conn %d: %d commands", c, len(sc.reqs))
		}
		near := func(name string, got int, want float64) {
			if f := float64(got) / n; f < want*0.95 || f > want*1.05 {
				t.Errorf("conn %d: %s is %.4f of the commands, want %.4f", c, name, f, want)
			}
		}
		near("bloom query", count[kQueryB]+count[kQueryBHit], 0.4)
		near("cm query", count[kQueryC], 0.4)
		near("insert", count[kInsert], 0.2)
		if count[kCard] == 0 || count[kCard] > 2*len(sc.reqs)/1024 {
			t.Errorf("conn %d: %d SKETCH.CARD commands, want about 1 in 1024", c, count[kCard])
		}
		near("present bloom query", count[kQueryBHit], 0.2)
		for i, rq := range sc.reqs {
			if rq.kind != kQueryBHit {
				continue
			}
			f := bytes.Fields(sc.bytes(i, i+1))
			if !inserted[string(f[1])+" "+string(f[2])] {
				t.Fatalf("conn %d: %q is checked as present but the connection never inserts it", c, sc.bytes(i, i+1))
			}
		}
	}
	for s, p := range in.preload {
		if len(p) != sketchWindow {
			t.Errorf("preload of %s is %d keys, want %d", sketchDefs[s].name, len(p), sketchWindow)
		}
	}
}

// inputDigest is the SHA-256 of everything a workload sends, request
// bytes and set-up keys.
func inputDigest(workload string, seed uint64) string {
	h := sha256.New()
	writeKeys := func(keys []uint64) {
		var b [8]byte
		for _, k := range keys {
			binary.LittleEndian.PutUint64(b[:], k)
			h.Write(b[:])
		}
	}
	switch workload {
	case "ingest_mem", "ingest_wal", "ingest_repl":
		h.Write(genIngest(seed).sc.buf)
	case "query_mix":
		in := genQuery(seed)
		h.Write(in.conns[0].buf)
		h.Write(in.conns[1].buf)
		for _, p := range in.preload {
			writeKeys(p)
		}
	case "paced_wal":
		in := genPaced(seed)
		h.Write(in.writer.buf)
		h.Write(in.reader.buf)
	}
	acc := genAccuracy(seed)
	writeKeys(acc.keys)
	writeKeys(acc.absent)
	return hex.EncodeToString(h.Sum(nil))
}
