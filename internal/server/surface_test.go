package server

// The golden operational surface: after one scripted session on a WAL
// node, what /metrics, /debug/vars and INFO say — every family, series,
// label and deterministic value, in order. It pins the counter
// vocabulary the way the protocol transcript pins the replies; the
// session is a transcript and the comparison is normalize's.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/surface.golden and testdata/sealed_*.she from this build")

// surfaceVolatile masks, on top of volatile, what a scrape reads off a
// clock, the Go runtime or the build: latency sums, uptime, rates,
// runtime gauges, toolchain labels. Histogram bucket lines are dropped
// whole — only occupied buckets are exposed, so which ones appear is the
// clock's doing; every family keeps its _sum and _count lines.
var surfaceVolatile = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`^((she_go_|go_|she_uptime_|she_build_info)\S*) .*`), "$1 #"},
	// The INFO reply itself is in this total, uptime digits and all.
	{regexp.MustCompile(`^(she_traffic_client_bytes_out) .*`), "$1 #"},
	{regexp.MustCompile(`^(she_\w+_seconds(_sum)?(\{.*\})?) .*`), "$1 #"},
	{regexp.MustCompile(`(version|go_version|trace_id)="[^"]*"`), `$1="#"`},
	{regexp.MustCompile(`("?(uptime_seconds|commands_per_sec)"?[=:] ?)[0-9.e+-]+`), "$1#"},
}

func normalizeSurface(text string) string {
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.Contains(l, "_bucket{") {
			continue
		}
		for _, v := range surfaceVolatile {
			l = v.re.ReplaceAllString(l, v.with)
		}
		lines = append(lines, normalize(l))
	}
	return strings.Join(lines, "\n")
}

func TestOperationalSurface(t *testing.T) {
	const golden = "testdata/surface.golden"
	transcript{
		name: "surface",
		cfg: func(t *testing.T) Config {
			return Config{DebugListen: "127.0.0.1:0", WALDir: t.TempDir(), SnapshotDir: t.TempDir()}
		},
		script: `
= a
> SKETCH.CREATE b bloom bits=4096 window=1024 shards=2
+OK
> SKETCH.CREATE c cm counters=1024 window=1024 shards=2
+OK
> SKETCH.CREATE h hll registers=64 window=1024 shards=2
+OK
> MINSERT b 1 2 3
:3
> SKETCH.INSERT c 5 5 bob
:3
> MINSERT h 1 2 3 4
:4
> SKETCH.QUERY b 1
:1
> SKETCH.QUERY c 5
:2
> SKETCH.CARD h
+7.1405936420547125
> SKETCH.QUERY h 1
-ERR hll answers SKETCH.CARD, not SKETCH.QUERY
> NOSUCH
-ERR unknown command "NOSUCH"
> SKETCH.SAVE b
+OK
> SKETCH.LOAD b2 b
+OK
> SKETCH.DROP b2
+OK
`,
		after: func(t *testing.T, s *Server) {
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("INFO\n")); err != nil {
				t.Fatal(err)
			}
			info, err := (&tconn{conn: conn, r: bufio.NewReader(conn)}).reply(false)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := fetch(t, "http://"+s.DebugAddr().String()+"/debug/vars")
			var vars bytes.Buffer
			if err := json.Indent(&vars, []byte(body), "", " "); err != nil {
				t.Fatal(err)
			}
			got := "== INFO\n" + normalizeSurface(strings.Join(info, "\n")) +
				"\n== /debug/vars\n" + normalizeSurface(vars.String()) +
				"\n== /metrics\n" + normalizeSurface(scrape(t, s)) + "\n"
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("the operational surface moved (go test ./internal/server -run TestOperationalSurface -update-golden rewrites %s):\n%s", golden, lineDiff(string(want), got))
			}
		},
	}.run(t)
}

// lineDiff lists the lines only one side has, in order: enough to read a
// golden that moved without a diff tool.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	var out []string
	for _, l := range strings.Split(got, "\n") {
		if count[l] > 0 {
			count[l]--
		} else {
			out = append(out, "+ "+l)
		}
	}
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			count[l]--
			out = append(out, "- "+l)
		}
	}
	return strings.Join(out, "\n")
}

// TestArmedSurface pins /metrics where every telemetry layer is on: a
// WAL primary auditing, sampling traffic and tracing every line, under a
// memory budget and an admission cap, with a sketch of each kind and one
// replica attached — and that replica's own scrape. The lines are sorted
// after normalizeSurface, so a family may move within a scrape, but no
// family, series or value may change.
func TestArmedSurface(t *testing.T) {
	const golden = "testdata/armed.golden"
	var replica *Server
	acked := func(s *Server) bool {
		infos := s.tracker.Infos()
		return len(infos) == 1 && infos[0].Ack == s.wal.Position() && infos[0].UnackedRecords() == 0
	}
	transcript{
		name: "armed",
		cfg: func(t *testing.T) Config {
			return Config{DebugListen: "127.0.0.1:0", WALDir: t.TempDir(), SnapshotDir: t.TempDir(),
				AuditSample: 1, TraceSample: 1, TrafficSample: 1, MaxMemory: 64 << 20, MaxInflight: 64}
		},
		hooks: map[string]func(*testing.T, *Server){
			"replica": func(t *testing.T, s *Server) {
				replica = startServer(t, Config{DebugListen: "127.0.0.1:0", WALDir: t.TempDir(),
					ReplicaOf: s.Addr().String(), ReplRetryInterval: 10 * time.Millisecond})
				eventually(t, "the replica to attach", func() bool { return acked(s) })
			},
			"acked": func(t *testing.T, s *Server) {
				eventually(t, "the replica to ack the log tip", func() bool { return acked(s) })
			},
		},
		script: `
! replica
= a
> SKETCH.CREATE b bloom bits=4096 window=1024 shards=2
+OK
> SKETCH.CREATE c cm counters=1024 window=1024 shards=2
+OK
> SKETCH.CREATE h hll registers=64 window=1024 shards=2
+OK
> MINSERT b 1 2 3 4 5 6 7 8
:8
> SKETCH.INSERT c 5 5 5 6 bob
:5
> MINSERT h 1 2 3 4 5 6
:6
> SKETCH.QUERY b 1
:1
> SKETCH.QUERY b 9
:0
> SKETCH.QUERY c 5
:3
> SKETCH.CARD h
+10.512130143105157
> NOSUCH
-ERR unknown command "NOSUCH"
! acked
`,
		after: func(t *testing.T, s *Server) {
			// On top of normalizeSurface: what the replica's acks, its
			// bursts and the clock decide — the acks' bytes, how many
			// appends and syncs the replica's log took, traces over
			// xtrace's 10 ms pin threshold.
			armedVolatile := regexp.MustCompile(`^(she_traffic_client_bytes_in|she_wal_(append|fsync)_seconds_count|she_trace_pinned) .*`)
			sorted := func(s *Server) string {
				lines := strings.Split(normalizeSurface(scrape(t, s)), "\n")
				for i, l := range lines {
					lines[i] = armedVolatile.ReplaceAllString(l, "$1 #")
				}
				slices.Sort(lines)
				return strings.Join(lines, "\n")
			}
			got := "== primary /metrics\n" + sorted(s) + "\n== replica /metrics\n" + sorted(replica) + "\n"
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("the armed surface moved (go test ./internal/server -run TestArmedSurface -update-golden rewrites %s):\n%s", golden, lineDiff(string(want), got))
			}
		},
	}.run(t)
}
