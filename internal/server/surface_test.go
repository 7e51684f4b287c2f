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
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
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
	{regexp.MustCompile(`(version|go_version)="[^"]*"`), `$1="#"`},
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

func httpBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestOperationalSurface(t *testing.T) {
	const golden = "testdata/surface.golden"
	transcript{
		name: "surface",
		cfg: func(t *testing.T) Config {
			return Config{Listen: "127.0.0.1:0", DebugListen: "127.0.0.1:0", WALDir: t.TempDir(), SnapshotDir: t.TempDir()}
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
			base := "http://" + s.DebugAddr().String()
			var vars bytes.Buffer
			if err := json.Indent(&vars, []byte(httpBody(t, base+"/debug/vars")), "", " "); err != nil {
				t.Fatal(err)
			}
			got := "== INFO\n" + normalizeSurface(strings.Join(info, "\n")) +
				"\n== /debug/vars\n" + normalizeSurface(vars.String()) +
				"\n== /metrics\n" + normalizeSurface(httpBody(t, base+"/metrics")) + "\n"
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
				t.Errorf("the operational surface moved (go test -run TestOperationalSurface -update-golden ./internal/server rewrites %s):\n%s", golden, lineDiff(string(want), got))
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
