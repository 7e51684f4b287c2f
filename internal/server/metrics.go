package server

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"time"

	"she/internal/audit"
	"she/internal/obs"
)

// buildInfo resolves the she_build_info label values once: the main
// module version from the embedded build info ("(devel)" or unknown
// for untagged builds) and the Go toolchain that compiled the binary.
var buildInfo = sync.OnceValues(func() (version, goVersion string) {
	version = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return version, runtime.Version()
})

// counters declares the server's operational counters, each once: a
// field is the counter's storage (an update site names it,
// s.ctr.Commands.Inc()), its tags are its name on INFO and /debug/vars
// and — behind she_ — on /metrics, and the help line the README's
// counter table carries (TestCounterReference holds the README to
// this list). New reads the tags into Server.ctrRows once, so every
// counter is listed, at zero, from the first scrape. A new counter is
// one line here and its line in the README's table.
type counters struct {
	BatchApplies      obs.Counter `name:"batch_applies_total" help:"batch engine applies (one group commit each)"`
	BatchCommands     obs.Counter `name:"batch_commands_total" help:"insert commands that went through a batch apply"`
	BatchKeys         obs.Counter `name:"batch_keys_total" help:"keys that went through a batch apply"`
	CheckpointErrors  obs.Counter `name:"checkpoint_errors" help:"WAL checkpoints that failed"`
	Checkpoints       obs.Counter `name:"checkpoints" help:"WAL checkpoints completed"`
	ClientsKilled     obs.Counter `name:"clients_killed" help:"connections closed by CLIENT KILL"`
	Commands          obs.Counter `name:"commands_total" help:"commands executed"`
	ConnsActive       obs.Counter `name:"connections_active" help:"client connections open now (a level)"`
	ConnsRejected     obs.Counter `name:"connections_rejected" help:"connections refused at -max-conns"`
	ConnsTotal        obs.Counter `name:"connections_total" help:"client connections accepted"`
	Errors            obs.Counter `name:"errors_total" help:"commands answered -ERR"`
	Inserts           obs.Counter `name:"inserts_total" help:"keys inserted"`
	BusyRejects       obs.Counter `name:"overload_busy_rejects" help:"commands answered -ERR BUSY at -max-inflight"`
	OOMInserts        obs.Counter `name:"overload_oom_inserts" help:"inserts refused -ERR OOM at the refuse_insert rung"`
	RefusedCreates    obs.Counter `name:"overload_refused_creates" help:"creates and loads refused -ERR OOM at the refuse_create rung"`
	SlowlogDropped    obs.Counter `name:"overload_slowlog_dropped" help:"slow commands kept out of the slowlog at the shed_slowlog rung"`
	OverTransitions   obs.Counter `name:"overload_transitions" help:"overload ladder level changes"`
	PanicsRecovered   obs.Counter `name:"panics_recovered" help:"handler panics contained to their connection"`
	ReplApplied       obs.Counter `name:"repl_applied_records" help:"records applied as a follower"`
	ReplFullSyncs     obs.Counter `name:"repl_full_syncs" help:"replica bootstraps served from the sketches sealed at the log tip"`
	ReplPartialSyncs  obs.Counter `name:"repl_partial_syncs" help:"replica cursor catch-ups served from the log"`
	ReplPromotions    obs.Counter `name:"repl_promotions" help:"REPLICAOF NO ONE promotions"`
	ReplSlowDrops     obs.Counter `name:"repl_slow_replica_drops" help:"replicas disconnected for exceeding -repl-max-lag"`
	ReplSyncTimeouts  obs.Counter `name:"repl_sync_timeouts" help:"semi-synchronous replica acks that timed out"`
	SlowCommands      obs.Counter `name:"slow_commands_total" help:"commands at or over -slow-ms"`
	SnapsLoaded       obs.Counter `name:"snapshots_loaded" help:"snapshots restored by SKETCH.LOAD"`
	SnapsQuarantined  obs.Counter `name:"snapshots_quarantined" help:"unusable snapshot files set aside as .corrupt"`
	SnapsSaved        obs.Counter `name:"snapshots_saved" help:"snapshots written by SKETCH.SAVE"`
	WALBytes          obs.Counter `name:"wal_bytes" help:"WAL bytes since the last checkpoint (a level)"`
	WALErrors         obs.Counter `name:"wal_errors" help:"WAL appends and syncs that failed"`
	WALRecords        obs.Counter `name:"wal_records" help:"WAL records appended"`
	WALReplaySkipped  obs.Counter `name:"wal_replay_skipped" help:"logged records recovery could not apply"`
	WALReplayed       obs.Counter `name:"wal_replayed_records" help:"logged records replayed at startup"`
	WALSegsQuarantine obs.Counter `name:"wal_segments_quarantined" help:"corrupt or orphaned WAL segments set aside at startup"`
	WALTornBytes      obs.Counter `name:"wal_torn_bytes" help:"bytes of torn tail truncated at startup"`
}

// writeMetrics writes Prometheus text exposition (format version
// 0.0.4) for the debug listener: operational counters, per-verb command
// latency histograms, WAL fsync/checkpoint histograms, per-sketch SHE,
// audit and hot-key samples and a few Go runtime numbers. The body is
// rendered in full before it is written, so a slow scrape holds no
// server locks while draining.
func (s *Server) writeMetrics(w io.Writer) {
	p := obs.NewPromWriter(w)

	p.Gauge("she_uptime_seconds", time.Since(s.start).Seconds())
	// Constant-1 info gauge: the labels carry the build identity, the
	// standard Prometheus idiom for joining version onto other series.
	version, goVersion := buildInfo()
	p.Gauge("she_build_info", 1, "version", version, "go_version", goVersion)
	// Constant-1 config gauge: a scrape alone identifies how the node
	// is configured — durability, sampling rates, memory budget.
	wal := "off"
	if s.cfg.WALDir != "" {
		wal = "on"
	}
	p.Gauge("she_config_info", 1, "wal", wal, "audit_sample", fmt.Sprintf("%g", s.cfg.AuditSample),
		"trace_sample", strconv.Itoa(s.sample.Trace.Every()), "traffic_sample", strconv.Itoa(s.sample.Traffic.Every()),
		"max_memory_bytes", strconv.FormatInt(s.cfg.MaxMemory, 10))

	// Operational counters, one family each. Untyped, not counter: an
	// obs.Counter doubles as a gauge (connections_active, wal_bytes go
	// down), and claiming "counter" for those would be a lie.
	for _, r := range s.ctrRows {
		p.Untyped("she_"+r.Name, float64(r.C.Value()))
	}

	// Every known verb appears, active or not, so dashboards can query a
	// stable series set from the first scrape.
	for i := range verbs {
		p.Histogram("she_command_seconds", s.verbHist[i].Snapshot(), "verb", verbs[i].name)
	}
	p.Histogram("she_wal_fsync_seconds", s.walSyncHist.Snapshot())
	p.Histogram("she_wal_append_seconds", s.walAppendHist.Snapshot())
	p.Histogram("she_wal_checkpoint_seconds", s.walChkHist.Snapshot())

	// One visit a sketch: its SHE introspection gauges from one Stats
	// scan, its audit figures when audited, its hot keys when sampled.
	// The scan is read-only (no lazy cleaning runs), so between
	// cleanings the fill and age-class numbers include cells a query
	// would clean on contact — approximate by design.
	rate, tracked := s.sample.Traffic.Every(), 0
	for _, in := range s.reg.List() {
		sk, st, l := in.Sketch, in.Sketch.Stats(), []string{"sketch", in.Name}
		p.Gauge("she_sketch_shards", float64(st.Shards), l...)
		p.Gauge("she_sketch_window", float64(st.Window), l...)
		p.Gauge("she_sketch_inserts", float64(sk.Inserts()), l...)
		p.Gauge("she_sketch_memory_bits", float64(sk.MemoryBits()), l...)
		p.Gauge("she_sketch_resident_bytes", float64(sk.ResidentBytes()), l...)
		p.Gauge("she_sketch_fill_ratio", st.FillRatio(), l...)
		p.Gauge("she_sketch_cycle_position", st.CyclePosition, l...)
		p.Gauge("she_sketch_young_cells", float64(st.Young), l...)
		p.Gauge("she_sketch_perfect_cells", float64(st.Perfect), l...)
		p.Gauge("she_sketch_aged_cells", float64(st.Aged), l...)
		if a := sk.Audit(); a != nil {
			writeAuditMetrics(p, a.Snapshot(), in.Name)
		}
		// Top-k only, so the label cardinality is bounded by K·sketches.
		if top, sampled := sk.hot.Load().Top(0, rate); sampled > 0 {
			tracked++
			p.Counter("she_hotkeys_sampled_keys_total", float64(sampled), l...)
			for _, e := range top {
				p.Gauge("she_hotkeys_est_count", float64(e.Count), "sketch", in.Name, "key", strconv.FormatUint(e.Key, 10))
			}
		}
	}
	if tracked > 0 {
		p.Gauge("she_hotkeys_tracked_sketches", float64(tracked))
	}

	s.writeReplMetrics(p)
	s.writeOverloadMetrics(p)
	s.writeTraceMetrics(p)
	s.writeTrafficMetrics(p)

	p.Gauge("go_goroutines", float64(runtime.NumGoroutine()))
	writeGoMetrics(p)
	p.Flush()
}

// goMetricNames are the runtime/metrics samples the she_go_* families
// are built from — the runtime's supported replacement for the old
// hand-rolled ReadMemStats lines (which stop the world on some
// collectors and expose only two numbers). Read in one batched
// rtmetrics.Read call per scrape.
var goMetricNames = []string{
	"/sched/gomaxprocs:threads",
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/allocs-by-size:bytes",
}

// writeGoMetrics renders the she_go_* families from runtime/metrics:
// scheduler shape (GOMAXPROCS, goroutines), heap footprint, and three
// distributions — GC pause times, scheduling latency, and the heap
// allocation size classes — through PromWriter.HistogramEdges.
// Unknown samples (an older or newer runtime dropping a name) render
// nothing rather than a bogus zero.
func writeGoMetrics(p *obs.PromWriter) {
	samples := make([]rtmetrics.Sample, len(goMetricNames))
	for i, name := range goMetricNames {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	for _, sm := range samples {
		switch sm.Name {
		case "/sched/gomaxprocs:threads":
			if sm.Value.Kind() == rtmetrics.KindUint64 {
				p.Gauge("she_go_gomaxprocs_threads", float64(sm.Value.Uint64()))
			}
		case "/sched/goroutines:goroutines":
			if sm.Value.Kind() == rtmetrics.KindUint64 {
				p.Gauge("she_go_goroutines", float64(sm.Value.Uint64()))
			}
		case "/memory/classes/heap/objects:bytes":
			if sm.Value.Kind() == rtmetrics.KindUint64 {
				p.Gauge("she_go_heap_objects_bytes", float64(sm.Value.Uint64()))
			}
		case "/memory/classes/total:bytes":
			if sm.Value.Kind() == rtmetrics.KindUint64 {
				p.Gauge("she_go_memory_total_bytes", float64(sm.Value.Uint64()))
			}
		case "/gc/pauses:seconds":
			writeGoHistogram(p, "she_go_gc_pauses_seconds", sm)
		case "/sched/latencies:seconds":
			writeGoHistogram(p, "she_go_sched_latency_seconds", sm)
		case "/gc/heap/allocs-by-size:bytes":
			writeGoHistogram(p, "she_go_heap_allocs_by_size_bytes", sm)
		}
	}
}

// writeGoHistogram converts one runtime/metrics Float64Histogram to
// Prometheus buckets. The runtime's Counts[i] covers
// [Buckets[i], Buckets[i+1]), with possibly infinite outermost
// boundaries; HistogramEdges wants finite upper edges plus an
// overflow bucket, so the finite interior boundaries become the
// edges and a trailing +Inf boundary's count becomes the overflow.
// The runtime keeps no sum, so _sum is approximated from bucket
// midpoints (clamped at the infinite ends) — fine for dashboards,
// and the buckets themselves are exact.
func writeGoHistogram(p *obs.PromWriter, name string, sm rtmetrics.Sample) {
	if sm.Value.Kind() != rtmetrics.KindFloat64Histogram {
		return
	}
	h := sm.Value.Float64Histogram()
	if h == nil || len(h.Counts) == 0 || len(h.Buckets) != len(h.Counts)+1 {
		return
	}
	edges := make([]float64, 0, len(h.Counts))
	counts := make([]uint64, 0, len(h.Counts)+1)
	var sum float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(hi, 1) {
			// Overflow bucket: no finite edge; lands in +Inf.
			counts = append(counts, n)
			sum += float64(n) * lo
			continue
		}
		edges = append(edges, hi)
		counts = append(counts, n)
		mid := hi
		if !math.IsInf(lo, -1) && lo >= 0 {
			mid = (lo + hi) / 2
		}
		sum += float64(n) * mid
	}
	p.HistogramEdges(name, edges, counts, sum)
}

// writeAuditMetrics renders one audited sketch's she_audit_* samples:
// shadow geometry, streaming error summaries, the relative-error
// histogram and the 16-bucket error-vs-cleaning-cycle-phase profile.
// The kind-specific figures (frequency ARE, membership FP rate,
// cardinality error) are those of the sketch's kind.
func writeAuditMetrics(p *obs.PromWriter, st audit.Stats, name string) {
	l := []string{"sketch", name}
	p.Gauge("she_audit_sample_prob", st.SampleProb, l...)
	p.Gauge("she_audit_shadow_len", float64(st.ShadowLen), l...)
	p.Gauge("she_audit_shadow_cap", float64(st.ShadowCap), l...)
	p.Gauge("she_audit_shadow_keys", float64(st.ShadowKeys), l...)
	p.Gauge("she_audit_coverage", st.Coverage, l...)
	p.Counter("she_audit_observations_total", float64(st.Observations), l...)
	p.Counter("she_audit_err_samples_total", float64(st.ErrSamples), l...)
	switch st.Kind {
	case audit.Frequency:
		p.Gauge("she_audit_freq_are", st.ARE(), l...)
		p.Gauge("she_audit_freq_aae", st.AAE(), l...)
	case audit.Membership:
		p.Gauge("she_audit_false_positive_rate", st.FPRate(), l...)
		p.Gauge("she_audit_false_negative_rate", st.FNRate(), l...)
		p.Counter("she_audit_present_probes_total", float64(st.PresentProbes), l...)
		p.Counter("she_audit_false_negatives_total", float64(st.FalseNegatives), l...)
		p.Counter("she_audit_absent_probes_total", float64(st.AbsentProbes), l...)
		p.Counter("she_audit_false_positives_total", float64(st.FalsePositives), l...)
	case audit.Cardinality:
		p.Gauge("she_audit_card_rel_err", st.ARE(), l...)
		p.Gauge("she_audit_card_last_est", st.LastCardEst, l...)
		p.Gauge("she_audit_card_last_truth", st.LastCardTruth, l...)
		p.Counter("she_audit_card_checks_total", float64(st.CardChecks), l...)
	}
	p.HistogramEdges("she_audit_rel_err", audit.ErrEdges[:], st.ErrHist.Counts[:], st.ErrHist.Sum, l...)
	// Phase profile: mean error and sample count per cleaning-cycle
	// phase bucket, phase = ⌊CyclePos/Tcycle · 16⌋.
	for i, b := range st.Phase {
		p.Gauge("she_audit_phase_err", b.Mean(), "sketch", name, "phase", strconv.Itoa(i))
		p.Gauge("she_audit_phase_observations", float64(b.Observations), "sketch", name, "phase", strconv.Itoa(i))
	}
}

// writeOverloadMetrics renders the she_overload_* gauge families:
// ladder level (0 = none … 4 = refuse_insert), accounted memory vs the
// budget, and the admission-control occupancy. The counter-shaped
// overload_* series are counters rows like any other. Emitted only when
// a budget or admission cap is configured, so unconfigured servers keep
// their scrape unchanged.
func (s *Server) writeOverloadMetrics(p *obs.PromWriter) {
	if s.cfg.MaxMemory > 0 {
		p.Gauge("she_overload_level", float64(s.overloadLevel()))
		p.Gauge("she_overload_memory_used_bytes", float64(s.over.usedBytes.Load()))
		p.Gauge("she_overload_memory_full_bytes", float64(s.over.fullBytes.Load()))
		p.Gauge("she_overload_memory_limit_bytes", float64(s.cfg.MaxMemory))
	}
	if s.admit != nil {
		p.Gauge("she_overload_inflight_commands", float64(s.admit.n.Load()))
		p.Gauge("she_overload_max_inflight", float64(s.admit.max))
	}
}
