package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchServerInsert measures end-to-end server-side inserts/sec over
// loopback with a pipelining client (one flush per batch) — the
// baseline later networking PRs are measured against. The variants
// below each switch one subsystem on; their delta against
// BenchmarkServerInsert is that subsystem's cost on the insert path.
// Run them by hand, interleaved and with a real -benchtime: one
// iteration measures nothing and a single pair is inside the box's
// noise. The numbers of record come from bench/.
func benchServerInsert(b *testing.B, cfg Config) {
	cfg.Logger = quiet()
	s := startServer(b, cfg)

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64*1024)
	w := bufio.NewWriterSize(conn, 64*1024)
	fmt.Fprintf(w, "SKETCH.CREATE bench bloom bits=1048576 window=1048576 shards=8\n")
	w.Flush()
	if reply, err := r.ReadString('\n'); err != nil || reply != "+OK\n" {
		b.Fatalf("CREATE = %q, %v", reply, err)
	}

	const batch = 256
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := batch
		if rem := b.N - done; rem < n {
			n = rem
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "SKETCH.INSERT bench %d\n", done+i)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			reply, err := r.ReadString('\n')
			if err != nil || !strings.HasPrefix(reply, ":") {
				b.Fatalf("reply = %q, %v", reply, err)
			}
		}
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inserts/sec")
}

// BenchmarkServerInsert runs with the default observability on: every
// command is clocked into its verb's latency histogram.
func BenchmarkServerInsert(b *testing.B) {
	benchServerInsert(b, Config{})
}

// BenchmarkServerInsertAudit turns the accuracy auditor on at the
// production-recommended 1/1024 sampling: the insert path pays one
// hash-and-compare per key, and the shadow window only on the ~1/1024
// sampled keys.
func BenchmarkServerInsertAudit(b *testing.B) {
	benchServerInsert(b, Config{AuditSample: 1.0 / 1024})
}

// BenchmarkServerInsertTrace turns request tracing on at the
// production-recommended 1-in-256 sampling. The 255 unsampled
// commands pay one atomic add at the sampling decision and a nil
// check at every span site; the sampled one pays the clock reads and
// span appends.
func BenchmarkServerInsertTrace(b *testing.B) {
	benchServerInsert(b, Config{TraceSample: 256})
}

// BenchmarkServerInsertOverload turns the overload machinery on with
// a budget the benchmark never approaches: memory accounting, the
// 250ms evaluation ticker and the admission-control slot all run, but
// no rung ever engages. The delta vs BenchmarkServerInsert is what
// overload protection costs a healthy server.
func BenchmarkServerInsertOverload(b *testing.B) {
	benchServerInsert(b, Config{
		MaxMemory:   1 << 30,
		MaxInflight: 64,
	})
}

// BenchmarkServerInsertTraffic turns traffic self-telemetry on at the
// production-recommended 1-in-256 sampling. The 255 unsampled
// commands pay one atomic add at the sampling decision (the one
// tracing shares); the sampled one feeds its already-
// parsed keys into the sketch's hot-key TopK. Per-connection byte and
// verb accounting is always on and rides the batch settle.
func BenchmarkServerInsertTraffic(b *testing.B) {
	benchServerInsert(b, Config{TrafficSample: 256})
}

// benchSaturateConns is the connection count for the saturation
// variants: enough concurrent pipelining clients to keep every batch
// drain busy (group commit on the WAL variants), small enough not to
// thrash a 2-core CI runner.
const benchSaturateConns = 8

// benchSaturateKeysPerCmd is how many keys each MINSERT line carries
// in the saturation variants: enough to amortize per-command wire and
// dispatch costs the way the batch engine is meant to be used, well
// under the 127-key record bound.
const benchSaturateKeysPerCmd = 64

// benchServerInsertSaturate drives the server with several concurrent
// pipelining connections, b.N inserts split across them — the
// multi-connection saturation figure, as opposed to the single-
// connection benchmarks above. Since PR 9 the workload is MINSERT
// with benchSaturateKeysPerCmd keys per command (decimal keys,
// client-rendered without fmt so the co-located client doesn't become
// the bottleneck): the saturation figure measures the batch execution
// engine at its intended use, while the single-connection benchmarks
// above keep the per-line SKETCH.INSERT shape for the overhead gates.
// withReplica additionally attaches a live follower (its own WAL dir,
// async replication), so the primary streams every record it fsyncs.
func benchServerInsertSaturate(b *testing.B, cfg Config, withReplica bool) {
	cfg.Logger = quiet()
	s := startServer(b, cfg)

	// The follower starts first: under semi-sync the CREATE below is
	// acknowledged only once a replica holds it.
	var rep *Server
	if withReplica {
		rep = startServer(b, Config{Logger: quiet(), WALDir: b.TempDir(), ReplicaOf: s.Addr().String()})
	}

	setup, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	sr := bufio.NewReader(setup)
	fmt.Fprintf(setup, "SKETCH.CREATE bench bloom bits=1048576 window=1048576 shards=8\n")
	if reply, err := sr.ReadString('\n'); err != nil || reply != "+OK\n" {
		b.Fatalf("CREATE = %q, %v", reply, err)
	}
	setup.Close()

	if rep != nil {
		// Wait until the follower serves the sketch (by full sync or the
		// stream) so the timed region measures steady-state streaming,
		// not the bootstrap.
		deadline := time.Now().Add(10 * time.Second)
		for {
			rc, err := net.Dial("tcp", rep.Addr().String())
			if err == nil {
				fmt.Fprintf(rc, "SKETCH.QUERY bench probe\n")
				reply, _ := bufio.NewReader(rc).ReadString('\n')
				rc.Close()
				if strings.HasPrefix(reply, ":") {
					break
				}
			}
			if time.Now().After(deadline) {
				b.Fatal("follower did not sync within 10s")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	conns := make([]net.Conn, benchSaturateConns)
	for i := range conns {
		c, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}

	const linesPerFlush = 256
	errs := make(chan error, len(conns))
	var wg sync.WaitGroup
	b.ResetTimer()
	for i, c := range conns {
		n := b.N / len(conns)
		if i < b.N%len(conns) {
			n++
		}
		wg.Add(1)
		go func(id, n int, c net.Conn) {
			defer wg.Done()
			r := bufio.NewReaderSize(c, 64*1024)
			w := bufio.NewWriterSize(c, 64*1024)
			line := make([]byte, 0, 16+21*benchSaturateKeysPerCmd)
			key := uint64(id) * 1_000_000_000_000 // disjoint key ranges per conn
			for done := 0; done < n; {
				lines := 0
				for done < n && lines < linesPerFlush {
					k := benchSaturateKeysPerCmd
					if rem := n - done; rem < k {
						k = rem
					}
					line = append(line[:0], "MINSERT bench"...)
					for j := 0; j < k; j++ {
						key++
						line = append(line, ' ')
						line = strconv.AppendUint(line, key, 10)
					}
					line = append(line, '\n')
					if _, err := w.Write(line); err != nil {
						errs <- err
						return
					}
					done += k
					lines++
				}
				if err := w.Flush(); err != nil {
					errs <- err
					return
				}
				for j := 0; j < lines; j++ {
					reply, err := r.ReadString('\n')
					if err != nil || !strings.HasPrefix(reply, ":") {
						errs <- fmt.Errorf("reply = %q, %v", reply, err)
						return
					}
				}
			}
		}(i, n, c)
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inserts/sec")
	if cfg.SyncReplicas > 0 && cfg.TraceSample > 0 {
		reportSpan(b, s.Addr().String(), "replack_wait")
	}
}

// reportSpan reports the median and 99th percentile of one span's
// duration over the traces the server at addr retains (TRACE GET).
func reportSpan(b *testing.B, addr, span string) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "TRACE GET\n")
	r := bufio.NewReader(c)
	var n int
	head, err := r.ReadString('\n')
	if _, serr := fmt.Sscanf(head, "*%d", &n); err != nil || serr != nil {
		b.Fatalf("TRACE GET = %q, %v", head, err)
	}
	var durs []int64
	for range n {
		line, err := r.ReadString('\n')
		var v traceView
		if err != nil || json.Unmarshal([]byte(strings.TrimPrefix(line, "+")), &v) != nil {
			b.Fatalf("TRACE GET line %q, %v", line, err)
		}
		for _, sp := range v.Spans {
			if sp.Name == span {
				durs = append(durs, sp.DurNs)
			}
		}
	}
	if len(durs) == 0 {
		return // a run too short to sample a command
	}
	slices.Sort(durs)
	b.ReportMetric(float64(durs[len(durs)/2])/1e3, span+"_p50_us")
	b.ReportMetric(float64(durs[len(durs)*99/100])/1e3, span+"_p99_us")
}

// BenchmarkServerInsertSaturate is the multi-connection saturation
// figure with the default config: 8 pipelining connections, no WAL.
func BenchmarkServerInsertSaturate(b *testing.B) {
	benchServerInsertSaturate(b, Config{}, false)
}

// BenchmarkServerInsertSaturateWAL adds the durable WAL — the
// baseline a streaming primary is measured against (group commit
// across the 8 connections).
func BenchmarkServerInsertSaturateWAL(b *testing.B) {
	benchServerInsertSaturate(b, Config{WALDir: b.TempDir()}, false)
}

// BenchmarkServerInsertSaturateRepl is SaturateWAL plus one attached
// follower tailing the WAL. With asynchronous replication the delta vs
// SaturateWAL is what streaming costs the primary's insert path; with
// one semi-synchronous replica every commit also waits for the
// follower's apply, fsync and ack, and the replack_wait span of the
// traces it samples 1 in 64 is reported as its p50 and p99.
func BenchmarkServerInsertSaturateRepl(b *testing.B) {
	b.Run("async", func(b *testing.B) {
		benchServerInsertSaturate(b, Config{WALDir: b.TempDir()}, true)
	})
	b.Run("sync-replicas=1", func(b *testing.B) {
		benchServerInsertSaturate(b, Config{WALDir: b.TempDir(), SyncReplicas: 1, TraceSample: 64}, true)
	})
}
