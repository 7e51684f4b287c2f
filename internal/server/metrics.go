package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
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

// metricsHandler serves Prometheus text exposition (format version
// 0.0.4) on the debug listener: operational counters, per-verb command
// latency histograms, WAL fsync/checkpoint histograms, per-sketch SHE
// gauges and a few Go runtime numbers. The body is rendered into a
// buffer first, so a slow scrape holds no server locks while draining.
func (s *Server) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	p := obs.NewPromWriter(&buf)

	p.Gauge("she_uptime_seconds", "", time.Since(s.start).Seconds())
	// Constant-1 info gauge: the labels carry the build identity, the
	// standard Prometheus idiom for joining version onto other series.
	version, goVersion := buildInfo()
	p.Gauge("she_build_info", fmt.Sprintf("version=%q,go_version=%q",
		obs.EscapeLabel(version), obs.EscapeLabel(goVersion)), 1)
	// Constant-1 config gauge: a scrape alone identifies how the node
	// is configured — durability, sampling rates, memory budget.
	wal := "off"
	if s.cfg.WALDir != "" {
		wal = "on"
	}
	p.Gauge("she_config_info", fmt.Sprintf(
		"wal=%q,audit_sample=\"%g\",trace_sample=\"%d\",traffic_sample=\"%d\",max_memory_bytes=\"%d\"",
		wal, s.cfg.AuditSample, s.sample.Trace.Every(), s.sample.Traffic.Every(), s.cfg.MaxMemory), 1)

	// Operational counters, one family each. Untyped, not counter: an
	// obs.Counter doubles as a gauge (connections_active, wal_bytes go
	// down), and claiming "counter" for those would be a lie.
	for _, r := range s.ctrRows {
		p.Untyped("she_"+r.Name, "", float64(r.C.Value()))
	}

	// Every known verb appears, active or not, so dashboards can query a
	// stable series set from the first scrape.
	for i := range verbs {
		labels := fmt.Sprintf("verb=%q", obs.EscapeLabel(verbs[i].name))
		p.Histogram("she_command_seconds", labels, s.verbHist[i].Snapshot())
	}
	p.Histogram("she_wal_fsync_seconds", "", s.walSyncHist.Snapshot())
	p.Histogram("she_wal_append_seconds", "", s.walAppendHist.Snapshot())
	p.Histogram("she_wal_checkpoint_seconds", "", s.walChkHist.Snapshot())

	// Per-sketch SHE introspection gauges, from the listing's one Stats
	// scan a sketch; families stay contiguous (all series of a family
	// under one # TYPE line), hence the loop per family rather than per
	// sketch. The scan is read-only (no lazy cleaning runs), so between
	// cleanings the fill and age-class numbers include cells a query
	// would clean on contact — approximate by design.
	infos := s.reg.List()
	labels := make([]string, len(infos))
	for i, in := range infos {
		labels[i] = fmt.Sprintf("sketch=%q", obs.EscapeLabel(in.Name))
	}
	families := []struct {
		name  string
		value func(*SketchInfo) float64
	}{
		{"she_sketch_shards", func(in *SketchInfo) float64 { return float64(in.Stats.Shards) }},
		{"she_sketch_window", func(in *SketchInfo) float64 { return float64(in.Stats.Window) }},
		{"she_sketch_inserts", func(in *SketchInfo) float64 { return float64(in.Sketch.Inserts()) }},
		{"she_sketch_memory_bits", func(in *SketchInfo) float64 { return float64(in.Sketch.MemoryBits()) }},
		{"she_sketch_resident_bytes", func(in *SketchInfo) float64 { return float64(in.Sketch.ResidentBytes()) }},
		{"she_sketch_fill_ratio", func(in *SketchInfo) float64 { return in.Stats.FillRatio() }},
		{"she_sketch_cycle_position", func(in *SketchInfo) float64 { return in.Stats.CyclePosition }},
		{"she_sketch_young_cells", func(in *SketchInfo) float64 { return float64(in.Stats.Young) }},
		{"she_sketch_perfect_cells", func(in *SketchInfo) float64 { return float64(in.Stats.Perfect) }},
		{"she_sketch_aged_cells", func(in *SketchInfo) float64 { return float64(in.Stats.Aged) }},
	}
	for _, fam := range families {
		for i := range infos {
			p.Gauge(fam.name, labels[i], fam.value(&infos[i]))
		}
	}

	s.writeAuditMetrics(p, infos)
	s.writeReplMetrics(p)
	s.writeOverloadMetrics(p)
	s.writeTraceMetrics(p)
	s.writeTrafficMetrics(p)

	p.Gauge("go_goroutines", "", float64(runtime.NumGoroutine()))
	writeGoMetrics(p)

	w.Write(buf.Bytes())
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
				p.Gauge("she_go_gomaxprocs_threads", "", float64(sm.Value.Uint64()))
			}
		case "/sched/goroutines:goroutines":
			if sm.Value.Kind() == rtmetrics.KindUint64 {
				p.Gauge("she_go_goroutines", "", float64(sm.Value.Uint64()))
			}
		case "/memory/classes/heap/objects:bytes":
			if sm.Value.Kind() == rtmetrics.KindUint64 {
				p.Gauge("she_go_heap_objects_bytes", "", float64(sm.Value.Uint64()))
			}
		case "/memory/classes/total:bytes":
			if sm.Value.Kind() == rtmetrics.KindUint64 {
				p.Gauge("she_go_memory_total_bytes", "", float64(sm.Value.Uint64()))
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
	p.HistogramEdges(name, "", edges, counts, sum)
}

// writeAuditMetrics renders the she_audit_* families: per-audited-
// sketch shadow geometry, streaming error summaries, the relative-
// error histogram, and the 16-bucket error-vs-cleaning-cycle-phase
// profile. One auditor Snapshot per sketch, reused across families so
// every family's series stay contiguous under its # TYPE line;
// kind-specific families (freq ARE, membership FP rate, cardinality
// error) emit series only for sketches of that kind.
func (s *Server) writeAuditMetrics(p *obs.PromWriter, infos []SketchInfo) {
	type auditRow struct {
		labels string
		st     audit.Stats
	}
	var rows []auditRow
	for _, in := range infos {
		if a := in.Sketch.Audit(); a != nil {
			rows = append(rows, auditRow{
				labels: fmt.Sprintf("sketch=%q", obs.EscapeLabel(in.Name)),
				st:     a.Snapshot(),
			})
		}
	}
	if len(rows) == 0 {
		return
	}
	gauges := []struct {
		name  string
		kind  audit.Kind // -1 = every kind
		value func(audit.Stats) float64
	}{
		{"she_audit_sample_prob", -1, func(st audit.Stats) float64 { return st.SampleProb }},
		{"she_audit_shadow_len", -1, func(st audit.Stats) float64 { return float64(st.ShadowLen) }},
		{"she_audit_shadow_cap", -1, func(st audit.Stats) float64 { return float64(st.ShadowCap) }},
		{"she_audit_shadow_keys", -1, func(st audit.Stats) float64 { return float64(st.ShadowKeys) }},
		{"she_audit_coverage", -1, func(st audit.Stats) float64 { return st.Coverage }},
		{"she_audit_freq_are", audit.Frequency, audit.Stats.ARE},
		{"she_audit_freq_aae", audit.Frequency, audit.Stats.AAE},
		{"she_audit_false_positive_rate", audit.Membership, audit.Stats.FPRate},
		{"she_audit_false_negative_rate", audit.Membership, audit.Stats.FNRate},
		{"she_audit_card_rel_err", audit.Cardinality, audit.Stats.ARE},
		{"she_audit_card_last_est", audit.Cardinality, func(st audit.Stats) float64 { return st.LastCardEst }},
		{"she_audit_card_last_truth", audit.Cardinality, func(st audit.Stats) float64 { return st.LastCardTruth }},
	}
	for _, fam := range gauges {
		for _, row := range rows {
			if fam.kind >= 0 && row.st.Kind != fam.kind {
				continue
			}
			p.Gauge(fam.name, row.labels, fam.value(row.st))
		}
	}
	totals := []struct {
		name  string
		kind  audit.Kind
		value func(audit.Stats) uint64
	}{
		{"she_audit_observations_total", -1, func(st audit.Stats) uint64 { return st.Observations }},
		{"she_audit_err_samples_total", -1, func(st audit.Stats) uint64 { return st.ErrSamples }},
		{"she_audit_present_probes_total", audit.Membership, func(st audit.Stats) uint64 { return st.PresentProbes }},
		{"she_audit_false_negatives_total", audit.Membership, func(st audit.Stats) uint64 { return st.FalseNegatives }},
		{"she_audit_absent_probes_total", audit.Membership, func(st audit.Stats) uint64 { return st.AbsentProbes }},
		{"she_audit_false_positives_total", audit.Membership, func(st audit.Stats) uint64 { return st.FalsePositives }},
		{"she_audit_card_checks_total", audit.Cardinality, func(st audit.Stats) uint64 { return st.CardChecks }},
	}
	for _, fam := range totals {
		for _, row := range rows {
			if fam.kind >= 0 && row.st.Kind != fam.kind {
				continue
			}
			p.Counter(fam.name, row.labels, float64(fam.value(row.st)))
		}
	}
	for _, row := range rows {
		p.HistogramEdges("she_audit_rel_err", row.labels,
			audit.ErrEdges[:], row.st.ErrHist.Counts[:], row.st.ErrHist.Sum)
	}
	// Phase profile: mean error and sample count per cleaning-cycle
	// phase bucket, phase = ⌊CyclePos/Tcycle · 16⌋.
	for _, row := range rows {
		for i, b := range row.st.Phase {
			p.Gauge("she_audit_phase_err",
				fmt.Sprintf("%s,phase=\"%d\"", row.labels, i), b.Mean())
		}
	}
	for _, row := range rows {
		for i, b := range row.st.Phase {
			p.Gauge("she_audit_phase_observations",
				fmt.Sprintf("%s,phase=\"%d\"", row.labels, i), float64(b.Observations))
		}
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
		p.Gauge("she_overload_level", "", float64(s.overloadLevel()))
		p.Gauge("she_overload_memory_used_bytes", "", float64(s.over.usedBytes.Load()))
		p.Gauge("she_overload_memory_full_bytes", "", float64(s.over.fullBytes.Load()))
		p.Gauge("she_overload_memory_limit_bytes", "", float64(s.cfg.MaxMemory))
	}
	if s.admit != nil {
		p.Gauge("she_overload_inflight_commands", "", float64(s.admit.n.Load()))
		p.Gauge("she_overload_max_inflight", "", float64(s.admit.max))
	}
}
