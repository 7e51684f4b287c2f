package server

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// quiet returns a logger that drops everything below Error, so tests
// exercising the slow-query path don't spray warnings on stderr.
func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
}

func TestSlowlogCommand(t *testing.T) {
	// A 1ns threshold makes every command slow, deterministically.
	s := startServer(t, Config{
		SlowThreshold: time.Nanosecond,
		Logger:        quiet(),
	})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE sl bloom bits=65536 window=4096")
	c.cmd("SKETCH.INSERT sl a b c")

	var n int
	if _, err := fmt.Sscanf(c.cmd("SLOWLOG LEN"), ":%d", &n); err != nil || n < 2 {
		t.Fatalf("SLOWLOG LEN = %d (err %v), want >= 2", n, err)
	}

	entryRe := regexp.MustCompile(`^id=\d+ time=\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z duration_us=\d+ addr=\S+ trace=(-|[0-9a-f]{16}) command=".+"$`)
	entries := c.array("SLOWLOG GET")
	if len(entries) < 2 {
		t.Fatalf("SLOWLOG GET = %v", entries)
	}
	// Every entry carries the client address of the connection that ran
	// the command — here, this test's own connection.
	localAddr := "addr=" + c.conn.LocalAddr().String()
	for _, e := range entries {
		if !entryRe.MatchString(e) {
			t.Errorf("malformed slowlog entry %q", e)
		}
		if !strings.Contains(e, localAddr+" ") {
			t.Errorf("slowlog entry %q missing client %s", e, localAddr)
		}
	}
	// Newest-first: the INSERT (logged after the CREATE) leads.
	if !strings.Contains(entries[0], "command=\"SLOWLOG LEN\"") &&
		!strings.Contains(entries[0], "command=\"SKETCH.INSERT sl a b c\"") {
		t.Errorf("entries not newest-first: %v", entries)
	}

	// The ring is bounded at its 128 entries.
	for i := 0; i < 130; i++ {
		c.cmd("PING")
	}
	if _, err := fmt.Sscanf(c.cmd("SLOWLOG LEN"), ":%d", &n); err != nil || n != 128 {
		t.Fatalf("SLOWLOG LEN after overflow = %d, want 128 (ring capacity)", n)
	}

	// Bare SLOWLOG is GET (both read the full ring); a count limits the
	// result.
	if got := c.array("SLOWLOG"); len(got) != len(c.array("SLOWLOG GET")) {
		t.Errorf("bare SLOWLOG != SLOWLOG GET")
	}
	if got := c.array("SLOWLOG GET 1"); len(got) != 1 {
		t.Errorf("SLOWLOG GET 1 returned %d entries", len(got))
	}

	if got := c.cmd("SLOWLOG RESET"); got != "+OK" {
		t.Fatalf("SLOWLOG RESET = %q", got)
	}
	// LEN right after RESET: the RESET itself may already have been
	// re-recorded, so 0 or 1.
	if _, err := fmt.Sscanf(c.cmd("SLOWLOG LEN"), ":%d", &n); err != nil || n > 1 {
		t.Fatalf("SLOWLOG LEN after reset = %d, want <= 1", n)
	}

	for _, tt := range []struct{ cmd, wantSub string }{
		{"SLOWLOG NOPE", "unknown subcommand"},
		{"SLOWLOG GET abc", "bad count"},
		{"SLOWLOG GET -1", "bad count"},
		{"SLOWLOG GET 1 2", "at most one"},
	} {
		if got := c.cmd(tt.cmd); !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, tt.wantSub) {
			t.Errorf("%q -> %q, want -ERR containing %q", tt.cmd, got, tt.wantSub)
		}
	}
}

// TestSlowlogDisabled: without a threshold nothing is recorded, but the
// SLOWLOG command still answers.
func TestSlowlogDisabled(t *testing.T) {
	s := startServer(t, Config{Logger: quiet()})
	c := dial(t, s.Addr().String())
	c.cmd("PING")
	if got := c.cmd("SLOWLOG LEN"); got != ":0" {
		t.Fatalf("SLOWLOG LEN = %q, want :0", got)
	}
	if got := c.array("SLOWLOG GET"); len(got) != 0 {
		t.Fatalf("SLOWLOG GET = %v, want empty", got)
	}
}

// kvLines parses "key=value" array lines into a map.
func kvLines(t *testing.T, lines []string) map[string]string {
	t.Helper()
	m := make(map[string]string, len(lines))
	for _, l := range lines {
		k, v, ok := strings.Cut(l, "=")
		if !ok {
			t.Fatalf("not key=value: %q", l)
		}
		m[k] = v
	}
	return m
}

func TestSketchStatsCommand(t *testing.T) {
	s := startServer(t, Config{Logger: quiet()})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE st bloom bits=65536 window=4096 shards=4")
	c.cmd("SKETCH.CREATE hh hll registers=4096 window=65536 shards=4")
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprint(i)
	}
	c.cmd("SKETCH.INSERT st " + strings.Join(keys, " "))

	kv := kvLines(t, c.array("SKETCH.STATS st"))
	if kv["kind"] != "bloom" || kv["shards"] != "4" || kv["window"] != "4096" || kv["inserts"] != "100" {
		t.Fatalf("SKETCH.STATS st = %v", kv)
	}
	for _, key := range []string{"tcycle", "memory_bits", "cells", "filled_cells",
		"fill_ratio", "cycle_position", "young_cells", "perfect_cells", "aged_cells"} {
		if _, ok := kv[key]; !ok {
			t.Errorf("SKETCH.STATS missing %s: %v", key, kv)
		}
	}
	// The age classes partition the cell array.
	atoi := func(k string) int {
		n, err := strconv.Atoi(kv[k])
		if err != nil {
			t.Fatalf("%s=%q not an int", k, kv[k])
		}
		return n
	}
	if atoi("young_cells")+atoi("perfect_cells")+atoi("aged_cells") != atoi("cells") {
		t.Fatalf("age classes don't partition cells: %v", kv)
	}
	if atoi("filled_cells") == 0 {
		t.Fatalf("no filled cells after 100 inserts: %v", kv)
	}
	if fr, err := strconv.ParseFloat(kv["fill_ratio"], 64); err != nil || fr <= 0 || fr > 1 {
		t.Fatalf("fill_ratio = %q", kv["fill_ratio"])
	}
	if cp, err := strconv.ParseFloat(kv["cycle_position"], 64); err != nil || cp < 0 || cp >= 1 {
		t.Fatalf("cycle_position = %q, want [0,1)", kv["cycle_position"])
	}

	// The wildcard form: one summary line per sketch, name-sorted.
	lines := c.array("SKETCH.STATS *")
	if len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "hh kind=hll") ||
		!strings.HasPrefix(lines[1], "st kind=bloom") {
		t.Fatalf("SKETCH.STATS * = %v", lines)
	}
	for _, l := range lines {
		for _, want := range []string{"shards=", "window=", "inserts=", "fill_ratio=", "cycle_position=", "young=", "perfect=", "aged="} {
			if !strings.Contains(l, want) {
				t.Errorf("wildcard line missing %s: %q", want, l)
			}
		}
	}

	for _, tt := range []struct{ cmd, wantSub string }{
		{"SKETCH.STATS", "want name|*"},
		{"SKETCH.STATS a b", "want name|*"},
		{"SKETCH.STATS missing", "no such sketch"},
	} {
		if got := c.cmd(tt.cmd); !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, tt.wantSub) {
			t.Errorf("%q -> %q, want -ERR containing %q", tt.cmd, got, tt.wantSub)
		}
	}
}

// promLine matches one exposition sample: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)

func TestMetricsEndpoint(t *testing.T) {
	s := startServer(t, Config{
		DebugListen: "127.0.0.1:0",
		WALDir:      t.TempDir(),
		Logger:      quiet(),
	})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE m bloom bits=65536 window=4096 shards=4")
	c.cmd("SKETCH.INSERT m a b c")
	c.cmd("SKETCH.QUERY m a")

	body, resp := fetch(t, "http://"+s.DebugAddr().String()+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Structural validation: every line is a comment or a well-formed
	// sample, and each family declares its TYPE exactly once.
	types := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if types[fields[2]] {
				t.Fatalf("duplicate # TYPE for %s", fields[2])
			}
			types[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
	}

	// Acceptance: a _bucket series for every command verb, WAL fsync
	// series, and the SHE introspection gauges.
	for _, verb := range []string{"PING", "QUIT", "INFO", "SLOWLOG",
		"SKETCH.LIST", "SKETCH.CREATE", "SKETCH.DROP", "SKETCH.INSERT",
		"SKETCH.QUERY", "SKETCH.CARD", "SKETCH.STATS", "SKETCH.AUDIT",
		"SKETCH.SAVE", "SKETCH.LOAD", "OTHER"} {
		want := fmt.Sprintf(`she_command_seconds_bucket{verb=%q`, verb)
		if !strings.Contains(body, want) {
			t.Errorf("no bucket series for verb %s", verb)
		}
	}
	for _, want := range []string{
		`she_command_seconds_bucket{verb="SKETCH.INSERT",le="+Inf"} 1`,
		"she_wal_fsync_seconds_bucket{",
		"she_wal_fsync_seconds_count",
		"she_wal_checkpoint_seconds_count",
		`she_sketch_fill_ratio{sketch="m"}`,
		`she_sketch_cycle_position{sketch="m"}`,
		`she_sketch_window{sketch="m"} 4096`,
		`she_sketch_inserts{sketch="m"} 3`,
		`she_sketch_young_cells{sketch="m"}`,
		`she_sketch_perfect_cells{sketch="m"}`,
		`she_sketch_aged_cells{sketch="m"}`,
		"she_commands_total",
		"she_uptime_seconds",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The WAL-backed INSERT committed, so at least one fsync landed in
	// the histogram.
	if strings.Contains(body, "she_wal_fsync_seconds_count 0\n") {
		t.Error("wal fsync histogram empty after a committed INSERT")
	}
}

// TestDebugEndpointsUnderLoad scrapes /debug/vars and /metrics while
// clients insert over TCP — under -race this is the data-race check for
// the whole observability read path (satellite of PR 3).
func TestDebugEndpointsUnderLoad(t *testing.T) {
	s := startServer(t, Config{
		DebugListen:   "127.0.0.1:0",
		SlowThreshold: time.Nanosecond, // exercise the slow-log writer too
		Logger:        quiet(),
	})
	admin := dial(t, s.Addr().String())
	admin.cmd("SKETCH.CREATE load cm counters=65536 window=65536 shards=4")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fmt.Fprintf(conn, "SKETCH.INSERT load key%d-%d\n", g, i)
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
			}
		}(g)
	}
	base := "http://" + s.DebugAddr().String()
	for i := 0; i < 25; i++ {
		if body, resp := fetch(t, base+"/debug/vars"); resp.StatusCode != 200 || !strings.Contains(body, "commands_total") {
			t.Fatalf("/debug/vars scrape %d: status %d", i, resp.StatusCode)
		}
		if body, resp := fetch(t, base+"/metrics"); resp.StatusCode != 200 || !strings.Contains(body, "she_commands_total") {
			t.Fatalf("/metrics scrape %d: status %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
}

func TestPprofEndpoints(t *testing.T) {
	on := startServer(t, Config{DebugListen: "127.0.0.1:0", EnablePprof: true, Logger: quiet()})
	if _, resp := fetch(t, "http://"+on.DebugAddr().String()+"/debug/pprof/cmdline"); resp.StatusCode != 200 {
		t.Fatalf("pprof enabled: cmdline status %d", resp.StatusCode)
	}
	off := startServer(t, Config{DebugListen: "127.0.0.1:0", Logger: quiet()})
	if _, resp := fetch(t, "http://"+off.DebugAddr().String()+"/debug/pprof/cmdline"); resp.StatusCode != 404 {
		t.Fatalf("pprof disabled: cmdline status %d, want 404", resp.StatusCode)
	}
}
