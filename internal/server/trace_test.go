package server

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// traceView mirrors the JSON shape TRACE GET renders (see
// internal/obs/xtrace.TraceView).
type traceView struct {
	ID     string `json:"id"`
	Verb   string `json:"verb"`
	Remote string `json:"remote"`
	WallNs int64  `json:"wall_ns"`
	DurNs  int64  `json:"dur_ns"`
	Err    bool   `json:"err"`
	Pinned bool   `json:"pinned"`
	Joined bool   `json:"joined"`
	Spans  []struct {
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		DurNs   int64  `json:"dur_ns"`
	} `json:"spans"`
}

func (v traceView) spanNames() map[string]bool {
	names := make(map[string]bool, len(v.Spans))
	for _, sp := range v.Spans {
		names[sp.Name] = true
	}
	return names
}

// getTraces runs a TRACE GET form and decodes every returned line.
func getTraces(t *testing.T, c *client, format string, args ...any) []traceView {
	t.Helper()
	lines := c.array(format, args...)
	out := make([]traceView, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &out[i]); err != nil {
			t.Fatalf("TRACE GET line %q: %v", l, err)
		}
	}
	return out
}

// tryGetTrace fetches one trace by id, tolerating the -ERR miss reply
// (the trace may not have been joined/retained yet) while always
// draining the full reply so the connection stays usable.
func tryGetTrace(t *testing.T, c *client, id string) (traceView, bool) {
	t.Helper()
	c.send("TRACE GET %s", id)
	head := c.recv()
	if strings.HasPrefix(head, "-") {
		return traceView{}, false
	}
	var n int
	if _, err := fmt.Sscanf(head, "*%d", &n); err != nil {
		t.Fatalf("TRACE GET %s: want array or -ERR, got %q", id, head)
	}
	var v traceView
	ok := false
	for i := 0; i < n; i++ {
		line := strings.TrimPrefix(c.recv(), "+")
		if i == 0 {
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				t.Fatalf("TRACE GET %s line %q: %v", id, line, err)
			}
			ok = true
		}
	}
	return v, ok
}

// findTrace returns the newest retained trace for verb, or nil.
func findTrace(t *testing.T, c *client, verb string) *traceView {
	t.Helper()
	for _, v := range getTraces(t, c, "TRACE GET") {
		if v.Verb == verb {
			return &v
		}
	}
	return nil
}

// TestTraceEndToEndReplicated is the tentpole assertion: one INSERT on
// a semi-synchronously replicated primary yields ONE trace whose spans
// cover the primary's parse → execute → mutate → WAL append → group-
// commit fsync → replica-ack wait, plus the asynchronous replication
// ship and ack round-trip — and the follower, which joined the same
// trace ID from the REC frame, holds the cross-node half with its
// apply and commit fsync spans.
func TestTraceEndToEndReplicated(t *testing.T) {
	primary := startServer(t, Config{
		WALDir:       t.TempDir(),
		SyncReplicas: 1,
		TraceSample:  1,
		Logger:       quiet(),
	})
	follower := startServer(t, Config{
		WALDir:    t.TempDir(),
		ReplicaOf: primary.Addr().String(),
		// TraceSample deliberately 0: joining a primary-sampled trace
		// must not depend on the follower's own sampling rate.
		Logger: quiet(),
	})
	fc := dial(t, follower.Addr().String())
	eventually(t, "replica attach", func() bool {
		return strings.Contains(strings.Join(fc.array("ROLE"), "\n"), "connected=true")
	})

	pc := dial(t, primary.Addr().String())
	if got := pc.cmd("SKETCH.CREATE flows cm counters=65536 window=65536 shards=4"); got != "+OK" {
		t.Fatalf("CREATE = %q", got)
	}
	if got := pc.cmd("SKETCH.INSERT flows one-traced-key"); got != ":1" {
		t.Fatalf("INSERT = %q", got)
	}

	ins := findTrace(t, pc, "SKETCH.INSERT")
	if ins == nil {
		t.Fatalf("no SKETCH.INSERT trace retained: %v", pc.array("TRACE GET"))
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(ins.ID) {
		t.Fatalf("trace id = %q, want 16 hex digits", ins.ID)
	}
	if ins.Joined {
		t.Errorf("primary trace marked joined")
	}
	if ins.DurNs <= 0 {
		t.Errorf("trace duration = %d, want > 0", ins.DurNs)
	}

	// The synchronous spans are all present the moment the INSERT was
	// acknowledged; the replication ship/ack pair lands asynchronously
	// (the ack goroutine may complete it on a later heartbeat), so poll.
	for _, span := range []string{"parse", "execute", "mutate", "wal_append", "fsync_wait", "replack_wait"} {
		if !ins.spanNames()[span] {
			t.Errorf("primary trace missing span %q: %+v", span, ins.Spans)
		}
	}
	eventually(t, "replication spans on primary trace", func() bool {
		got, ok := tryGetTrace(t, pc, ins.ID)
		if !ok {
			return false
		}
		names := got.spanNames()
		return names["repl_ship"] && names["replack"]
	})

	// The follower holds the other half of the SAME trace ID.
	var joined traceView
	eventually(t, "joined trace on follower", func() bool {
		v, ok := tryGetTrace(t, fc, ins.ID)
		joined = v
		return ok
	})
	if !joined.Joined {
		t.Errorf("follower trace not marked joined: %+v", joined)
	}
	if joined.Verb != "SKETCH.INSERT" {
		t.Errorf("follower trace verb = %q", joined.Verb)
	}
	for _, span := range []string{"apply", "commit_fsync"} {
		if !joined.spanNames()[span] {
			t.Errorf("follower trace missing span %q: %+v", span, joined.Spans)
		}
	}

	// Span sanity on both halves: ordered by start offset, no negative
	// durations.
	for _, v := range []traceView{*ins, joined} {
		last := int64(-1)
		for _, sp := range v.Spans {
			if sp.StartNs < last {
				t.Errorf("trace %s spans out of order: %+v", v.ID, v.Spans)
				break
			}
			last = sp.StartNs
			if sp.DurNs < 0 {
				t.Errorf("trace %s span %s negative duration", v.ID, sp.Name)
			}
		}
	}
}

// TestTraceVerbWire covers the TRACE verb family over the wire:
// SAMPLE get/set, GET filters, SLOWEST, RESET and the error replies.
func TestTraceVerbWire(t *testing.T) {
	s := startServer(t, Config{TraceSample: 1, Logger: quiet()})
	c := dial(t, s.Addr().String())

	if got := c.cmd("TRACE SAMPLE"); got != ":1" {
		t.Fatalf("TRACE SAMPLE = %q, want :1", got)
	}
	c.cmd("PING")
	c.cmd("NO.SUCH.COMMAND")

	// Every command so far (TRACE SAMPLE, PING, the unknown one) was
	// sampled; the unknown command's trace is errored and pinned.
	eventually(t, "retained traces", func() bool {
		return len(getTraces(t, c, "TRACE GET")) >= 3
	})
	bad := findTrace(t, c, "NO.SUCH.COMMAND")
	if bad == nil || !bad.Err || !bad.Pinned {
		t.Fatalf("unknown-command trace not errored+pinned: %+v", bad)
	}
	ping := findTrace(t, c, "PING")
	if ping == nil || ping.Err {
		t.Fatalf("PING trace = %+v", ping)
	}
	if ping.Remote == "" {
		t.Errorf("PING trace has no remote address")
	}

	// GET <id> round-trips; SLOWEST bounds the result.
	one := getTraces(t, c, "TRACE GET %s", ping.ID)
	if len(one) != 1 || one[0].ID != ping.ID {
		t.Fatalf("TRACE GET %s = %+v", ping.ID, one)
	}
	if got := getTraces(t, c, "TRACE GET SLOWEST 2"); len(got) != 2 {
		t.Fatalf("TRACE GET SLOWEST 2 = %d traces", len(got))
	}

	// Runtime rate change + reset leave an empty ring.
	if got := c.cmd("TRACE SAMPLE 0"); got != "+OK" {
		t.Fatalf("TRACE SAMPLE 0 = %q", got)
	}
	if got := c.cmd("TRACE SAMPLE"); got != ":0" {
		t.Fatalf("TRACE SAMPLE after set = %q", got)
	}
	if got := c.cmd("TRACE RESET"); got != "+OK" {
		t.Fatalf("TRACE RESET = %q", got)
	}
	if got := getTraces(t, c, "TRACE GET"); len(got) != 0 {
		t.Fatalf("ring not empty after RESET: %+v", got)
	}
	// A bare TRACE means TRACE GET (it used to panic the connection).
	if got := c.cmd("TRACE"); got != "*0" {
		t.Fatalf("bare TRACE = %q, want the empty ring", got)
	}

	for _, bad := range []string{
		"TRACE GET zz-not-hex",
		"TRACE GET 0000000000000000",
		"TRACE GET SLOWEST nope",
		"TRACE SAMPLE -1",
		"TRACE BOGUS",
	} {
		if got := c.cmd(bad); !strings.HasPrefix(got, "-ERR") {
			t.Errorf("%s = %q, want -ERR", bad, got)
		}
	}
	// A miss on a never-sampled id is an error, not an empty array.
	if got := c.cmd("TRACE GET 00000000000000ab"); !strings.HasPrefix(got, "-ERR") {
		t.Errorf("TRACE GET miss = %q, want -ERR", got)
	}
}

// TestTraceDisabledByDefault: with no TraceSample configured the TRACE
// verb works (empty, rate 0) and commands leave nothing behind.
func TestTraceDisabledByDefault(t *testing.T) {
	s := startServer(t, Config{Logger: quiet()})
	c := dial(t, s.Addr().String())
	c.cmd("PING")
	if got := c.cmd("TRACE SAMPLE"); got != ":0" {
		t.Fatalf("TRACE SAMPLE = %q, want :0", got)
	}
	if got := getTraces(t, c, "TRACE GET"); len(got) != 0 {
		t.Fatalf("traces retained while disabled: %+v", got)
	}
	// Enable at runtime: the very next command is 1-in-1 sampled.
	c.cmd("TRACE SAMPLE 1")
	c.cmd("PING")
	eventually(t, "runtime-enabled trace", func() bool {
		return findTrace(t, c, "PING") != nil
	})
}

// TestTraceSlowlogLink: a slow sampled command's SLOWLOG entry carries
// trace=<id> and that id resolves via TRACE GET.
func TestTraceSlowlogLink(t *testing.T) {
	s := startServer(t, Config{
		TraceSample:   1,
		SlowThreshold: 1, // 1ns: everything is slow
		Logger:        quiet(),
	})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE sl bloom bits=65536 window=4096")

	var id string
	eventually(t, "slowlog entry with trace id", func() bool {
		for _, e := range c.array("SLOWLOG GET") {
			if !strings.Contains(e, `command="SKETCH.CREATE`) {
				continue
			}
			m := regexp.MustCompile(` trace=([0-9a-f]{16}) `).FindStringSubmatch(e)
			if m != nil {
				id = m[1]
				return true
			}
		}
		return false
	})
	got := getTraces(t, c, "TRACE GET %s", id)
	if len(got) != 1 || got[0].Verb != "SKETCH.CREATE" {
		t.Fatalf("slowlog trace id %s resolves to %+v", id, got)
	}
}
