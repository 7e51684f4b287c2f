package server

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"she/internal/audit"
)

// insertMany pushes n keys drawn from a space of `space` distinct
// values into sketch name, batched to keep round trips reasonable.
func insertMany(t *testing.T, c *client, name string, n, space int) {
	t.Helper()
	const batch = 64
	for done := 0; done < n; {
		k := batch
		if rem := n - done; rem < k {
			k = rem
		}
		var sb strings.Builder
		sb.WriteString("SKETCH.INSERT ")
		sb.WriteString(name)
		for i := 0; i < k; i++ {
			fmt.Fprintf(&sb, " k%d", (done+i)%space)
		}
		if got := c.cmd(sb.String()); !strings.HasPrefix(got, ":") {
			t.Fatalf("INSERT batch = %q", got)
		}
		done += k
	}
}

// TestAuditEndToEnd is the PR's acceptance path: a server started with
// -audit-sample 1/1024 on a CM sketch exposes non-trivial she_audit_*
// series after a realistic volume of inserts, and the same numbers
// are visible over the wire via SKETCH.AUDIT.
func TestAuditEndToEnd(t *testing.T) {
	s := startServer(t, Config{
		DebugListen: "127.0.0.1:0",
		AuditSample: 1.0 / 1024,
		Logger:      quiet(),
	})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE ac cm counters=65536 window=65536 shards=4")
	// 64k inserts over an 8k key space: at 1/1024 sampling roughly
	// 8 keys are shadowed, each observed ~8 times.
	insertMany(t, c, "ac", 1<<16, 1<<13)

	kv := kvLines(t, c.array("SKETCH.AUDIT ac"))
	if kv["enabled"] != "true" || kv["kind"] != "freq" {
		t.Fatalf("SKETCH.AUDIT ac = %v", kv)
	}
	obsN, err := strconv.Atoi(kv["observations"])
	if err != nil || obsN == 0 {
		t.Fatalf("observations = %q, want > 0 (sampling should catch ~64 of 64k inserts)", kv["observations"])
	}
	// Sampling at 1/1024 must stay in the right order of magnitude:
	// E[observations] = 64, and a 20x band is far beyond any plausible
	// hash deviation.
	if obsN > 64*20 {
		t.Fatalf("observations = %d, want ~64 at 1/1024 sampling", obsN)
	}
	if kv["sample_prob"] == "" || kv["are"] == "" || kv["aae"] == "" {
		t.Fatalf("missing frequency fields: %v", kv)
	}
	if n := len(strings.Split(kv["phase_are"], ",")); n != 16 {
		t.Fatalf("phase_are has %d buckets, want 16: %q", n, kv["phase_are"])
	}

	body, _ := fetch(t, "http://"+s.DebugAddr().String()+"/metrics")
	for _, want := range []string{
		`she_audit_sample_prob{sketch="ac"} 0.0009765625`,
		`she_audit_observations_total{sketch="ac"} ` + kv["observations"],
		`she_audit_freq_are{sketch="ac"}`,
		`she_audit_freq_aae{sketch="ac"}`,
		`she_audit_shadow_keys{sketch="ac"}`,
		`she_audit_coverage{sketch="ac"} 1`,
		`she_audit_rel_err_bucket{sketch="ac",le="+Inf"}`,
		`she_audit_rel_err_count{sketch="ac"}`,
		`she_audit_phase_err{sketch="ac",phase="0"}`,
		`she_audit_phase_observations{sketch="ac",phase="15"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Non-trivial: the error-sample counter moved, so the ARE gauge is
	// a real measurement rather than a default.
	if strings.Contains(body, `she_audit_err_samples_total{sketch="ac"} 0`+"\n") {
		t.Error("audit err_samples_total stayed 0 after 64k inserts")
	}
}

// TestAuditCommand pins the SKETCH.AUDIT wire protocol at sample
// probability 1 (every key shadowed, deterministic counts).
func TestAuditCommand(t *testing.T) {
	s := startServer(t, Config{AuditSample: 1, Logger: quiet()})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE fr cm counters=65536 window=4096")
	c.cmd("SKETCH.CREATE mb bloom bits=65536 window=4096")
	insertMany(t, c, "fr", 512, 64)
	insertMany(t, c, "mb", 512, 64)

	kv := kvLines(t, c.array("SKETCH.AUDIT fr"))
	if kv["enabled"] != "true" || kv["kind"] != "freq" || kv["sample_prob"] != "1" {
		t.Fatalf("SKETCH.AUDIT fr = %v", kv)
	}
	if kv["observations"] != "512" {
		t.Fatalf("observations = %q, want 512 at p=1", kv["observations"])
	}
	if kv["shadow_keys"] != "64" {
		t.Fatalf("shadow_keys = %q, want 64 distinct", kv["shadow_keys"])
	}
	for _, key := range []string{"shadow_len", "shadow_cap", "coverage", "err_samples", "are", "aae", "last_rel_err", "phase_are", "phase_obs"} {
		if _, ok := kv[key]; !ok {
			t.Errorf("SKETCH.AUDIT fr missing %s: %v", key, kv)
		}
	}

	kv = kvLines(t, c.array("SKETCH.AUDIT mb"))
	if kv["kind"] != "membership" || kv["present_probes"] != "512" {
		t.Fatalf("SKETCH.AUDIT mb = %v", kv)
	}
	if kv["false_negatives"] != "0" || kv["fn_rate"] != "0" {
		t.Fatalf("bloom filters never have false negatives: %v", kv)
	}
	for _, key := range []string{"absent_probes", "false_positives", "fp_rate"} {
		if _, ok := kv[key]; !ok {
			t.Errorf("SKETCH.AUDIT mb missing %s: %v", key, kv)
		}
	}

	// Wildcard: one summary per audited sketch, name-sorted.
	lines := c.array("SKETCH.AUDIT *")
	if len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "fr kind=freq") ||
		!strings.HasPrefix(lines[1], "mb kind=membership") {
		t.Fatalf("SKETCH.AUDIT * = %v", lines)
	}
	if !strings.Contains(lines[0], "are=") || !strings.Contains(lines[1], "fp_rate=") {
		t.Fatalf("wildcard summaries missing kind fields: %v", lines)
	}

	// RESET restarts the measurement in place.
	if got := c.cmd("SKETCH.AUDIT fr RESET"); got != "+OK" {
		t.Fatalf("SKETCH.AUDIT fr RESET = %q", got)
	}
	kv = kvLines(t, c.array("SKETCH.AUDIT fr"))
	if kv["observations"] != "0" || kv["shadow_keys"] != "0" {
		t.Fatalf("stats survive RESET: %v", kv)
	}
	insertMany(t, c, "fr", 64, 64)
	kv = kvLines(t, c.array("SKETCH.AUDIT fr"))
	if kv["observations"] != "64" {
		t.Fatalf("auditor dead after RESET: %v", kv)
	}

	for _, tt := range []struct{ cmd, wantSub string }{
		{"SKETCH.AUDIT", "want name|*"},
		{"SKETCH.AUDIT a b c", "want name|*"},
		{"SKETCH.AUDIT missing", "no such sketch"},
		{"SKETCH.AUDIT * RESET", "not *"},
		{"SKETCH.AUDIT fr NOPE", "unknown subcommand"},
	} {
		if got := c.cmd(tt.cmd); !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, tt.wantSub) {
			t.Errorf("%q -> %q, want -ERR containing %q", tt.cmd, got, tt.wantSub)
		}
	}
}

// TestAuditDisabled: without -audit-sample the command still answers,
// RESET refuses, and /metrics carries no she_audit_* families at all.
func TestAuditDisabled(t *testing.T) {
	s := startServer(t, Config{DebugListen: "127.0.0.1:0", Logger: quiet()})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE off cm counters=65536 window=4096")
	insertMany(t, c, "off", 128, 16)

	if lines := c.array("SKETCH.AUDIT off"); len(lines) != 1 || lines[0] != "enabled=false" {
		t.Fatalf("SKETCH.AUDIT off = %v", lines)
	}
	if got := c.cmd("SKETCH.AUDIT off RESET"); !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, "disabled") {
		t.Fatalf("SKETCH.AUDIT off RESET = %q", got)
	}
	if lines := c.array("SKETCH.AUDIT *"); len(lines) != 0 {
		t.Fatalf("SKETCH.AUDIT * with auditing off = %v, want empty", lines)
	}
	body, _ := fetch(t, "http://"+s.DebugAddr().String()+"/metrics")
	if strings.Contains(body, "she_audit_") {
		t.Error("/metrics exposes she_audit_* with auditing off")
	}
}

// strictSample matches one exposition sample per the 0.0.4 text
// format: a valid metric name, an optional well-formed label set and a
// float value (decimal, scientific, +Inf, -Inf or NaN).
var strictSample = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)` + // metric name (captured)
		`(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})?` +
		` (NaN|[+-]?Inf|[-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?)$`)

// family maps a sample's metric name back to the family that declared
// it: histogram samples use the _bucket/_sum/_count suffixes of their
// family name.
func family(name string, declared map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && declared[base] == "histogram" {
			return base
		}
	}
	return name
}

// TestMetricsStrictExposition validates the full /metrics payload —
// with sketches of every kind, a WAL and auditing all enabled — as
// strict Prometheus 0.0.4 text: every line parses, every sample's
// family declares its # TYPE before the first sample, families are
// contiguous (never interleaved or re-opened) and no family declares
// TYPE twice.
func TestMetricsStrictExposition(t *testing.T) {
	s := startServer(t, Config{
		DebugListen:   "127.0.0.1:0",
		WALDir:        t.TempDir(),
		AuditSample:   1,
		TraceSample:   1,
		TrafficSample: 1,
		Logger:        quiet(),
	})
	c := dial(t, s.Addr().String())
	c.cmd("SKETCH.CREATE fx cm counters=65536 window=4096 shards=4")
	c.cmd("SKETCH.CREATE bx bloom bits=65536 window=4096")
	c.cmd("SKETCH.CREATE hx hll registers=4096 window=65536")
	for _, name := range []string{"fx", "bx", "hx"} {
		insertMany(t, c, name, 256, 32)
		c.cmd("SKETCH.QUERY " + name + " k0")
	}
	c.cmd("SKETCH.CARD hx")

	body, resp := fetch(t, "http://"+s.DebugAddr().String()+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}

	declared := map[string]string{} // family -> type
	closed := map[string]bool{}     // family blocks already left behind
	current := ""
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE %q", i+1, line)
			}
			name, kind := fields[2], fields[3]
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: invalid metric type %q", i+1, kind)
			}
			if _, dup := declared[name]; dup {
				t.Fatalf("line %d: duplicate # TYPE for %s", i+1, name)
			}
			declared[name] = kind
			if current != "" {
				closed[current] = true
			}
			current = name
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", i+1, line)
		}
		m := strictSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		fam := family(m[1], declared)
		if _, ok := declared[fam]; !ok {
			t.Fatalf("line %d: sample %q before its # TYPE", i+1, line)
		}
		if fam != current {
			if closed[fam] {
				t.Fatalf("line %d: family %s re-opened (non-contiguous)", i+1, fam)
			}
			closed[current] = true
			current = fam
		}
	}

	// All three audit kinds made it into the payload.
	for _, want := range []string{
		`she_audit_freq_are{sketch="fx"}`,
		`she_audit_false_positive_rate{sketch="bx"}`,
		`she_audit_card_rel_err{sketch="hx"}`,
		"she_wal_fsync_seconds_count",
		"she_wal_append_seconds_count",
		"she_build_info{",
		"she_trace_sample_every 1",
		"she_trace_retained",
		"she_trace_pinned",
		"she_trace_sampled_total",
		"she_trace_finished_total",
		`she_trace_exemplar_seconds{verb="SKETCH.INSERT",trace_id="`,
		"she_config_info{",
		"she_traffic_sample_every 1",
		"she_traffic_sampled_total",
		"she_traffic_clients",
		"she_traffic_monitor_dropped_total",
		"she_hotkeys_tracked_sketches 3",
		`she_hotkeys_sampled_keys_total{sketch="fx"}`,
		`she_hotkeys_est_count{sketch="fx",key="`,
		"she_go_gomaxprocs_threads",
		"she_go_gc_pauses_seconds_count",
		"she_go_sched_latency_seconds_bucket",
		"she_go_heap_allocs_by_size_bytes_sum",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAuditBloomShardsZipf feeds a 1-shard and an 8-shard bloom six
// windows of Zipf(1.1) keys. The unsharded filter keeps the whole
// window, so the audit must read no false negative, with every key
// audited and at 1/1024, where the hot keys are mostly unsampled and
// the shadow spans more than one window. The 8-shard value is only
// logged: each shard keeps the last Window/8 items routed to it, and
// under skew the hot key's shard spans about half the stream's window,
// which the audit now sees.
func TestAuditBloomShardsZipf(t *testing.T) {
	for _, tc := range []struct {
		shards string
		p      float64
	}{{"1", 1}, {"1", 1.0 / 1024}, {"8", 1}} {
		reg := NewRegistry(audit.Config{SampleProb: tc.p})
		if err := reg.Create("b", "bloom", map[string]string{
			"bits": "262144", "window": "65536", "shards": tc.shards, "seed": "7"}); err != nil {
			t.Fatal(err)
		}
		sk, _ := reg.Get("b")
		z := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, 1<<20)
		keys := make([]uint64, 1024)
		for n := 0; n < 6*65536; n += len(keys) {
			for i := range keys {
				keys[i] = z.Uint64()
			}
			sk.InsertBatch(keys, nil)
		}
		st := sk.Audit().Snapshot()
		t.Logf("shards=%s p=%g: fn_rate %.4f (%d of %d present probes)",
			tc.shards, tc.p, st.FNRate(), st.FalseNegatives, st.PresentProbes)
		if tc.shards == "1" && st.FalseNegatives != 0 {
			t.Fatalf("1-shard bloom at p=%g: %d false negatives, want 0", tc.p, st.FalseNegatives)
		}
	}
}
