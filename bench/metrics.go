package main

// metricDef is one row of the metric dictionary. The same table drives
// what is printed and, through a unit test that compares them, what
// BENCHMARK.json lists and what README.md's dictionary says.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share by which an end-to-end metric may worsen; 0 for a per-layer metric
	Source string  // of a layer metric: "P" in-process probe, "S" scraped from shed, "C" the generator's own
	Doc    string
}

// endToEnd are the gated metrics, every one reported on every workload
// and taken over the whole measured phase. A bound is at least twice
// the widest quartile spread seen over sets of ten runs with ten seeds
// on the 2-vCPU box the benchmark was sized on, and three times the
// usual one, where the cap of 0.25 allows it (README.md has the table
// and says where the box did not).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "", "process start to ready: sketch creation, preload, follower full sync; median of several set-ups"},
	{"keys_per_s", "1/s", "higher", 0.25, "", "keys carried by the commands answered in the measured phase / its length; ingest_repl adds the time until the follower has acked them all"},
	{"ops_per_s", "1/s", "higher", 0.25, "", "commands answered in the measured phase / its length"},
	{"cpu_us_per_op", "us", "lower", 0.25, "", "user+system CPU of all shed processes over the measured phase, per key (ingest_*) or per command"},
	{"rss_mb", "MiB", "lower", 0.25, "", "resident set (VmRSS) summed over shed servers, 10th percentile of the samples taken every 250 ms of the measured phase: the floor under the checkpoint and GC spikes"},
	{"bf_fpr", "ratio", "lower", 0.08, "", "accuracy pass: share of never-inserted keys the bloom filter claims"},
	{"cm_are", "ratio", "lower", 0.12, "", "accuracy pass: mean relative error of cm estimates over the window's distinct keys"},
	{"hll_rel_err", "ratio", "lower", 0.12, "", "accuracy pass: mean absolute relative error of the hll estimates against the exact window"},
}

// perLayer are the ungated metrics of single layers, named after the
// module they time.
var perLayer = []metricDef{
	{"hashing.bob64_ns", "ns", "lower", 0, "P", "BOBHash64 of a decimal key token"},
	{"hashing.family_index_ns", "ns", "lower", 0, "P", "Family.Index, one of a sketch's K locations"},

	{"core.bf_insert_ns", "ns", "lower", 0, "P", "SHE-BF insert at one shard's size"},
	{"core.bf_query_ns", "ns", "lower", 0, "P", "SHE-BF query"},
	{"core.cm_insert_ns", "ns", "lower", 0, "P", "SHE-CM insert"},
	{"core.cm_query_ns", "ns", "lower", 0, "P", "SHE-CM frequency estimate"},
	{"core.hll_insert_ns", "ns", "lower", 0, "P", "SHE-HLL insert"},
	{"core.hll_card_us", "us", "lower", 0, "P", "SHE-HLL cardinality estimate"},
	{"core.bm_insert_ns", "ns", "lower", 0, "P", "SHE-BM insert"},
	{"core.mh_insert_ns", "ns", "lower", 0, "P", "SHE-MH insert"},
	{"sketch.bloom_insert_ns", "ns", "lower", 0, "P", "fixed-window Ideal bloom insert"},
	{"sketch.bloom_query_ns", "ns", "lower", 0, "P", "Ideal bloom query"},
	{"sketch.cm_insert_ns", "ns", "lower", 0, "P", "Ideal count-min insert"},
	{"sketch.cm_query_ns", "ns", "lower", 0, "P", "Ideal count-min estimate"},
	{"sketch.hll_insert_ns", "ns", "lower", 0, "P", "Ideal HyperLogLog insert"},
	{"core.bf_insert_vs_ideal", "ratio", "lower", 0, "P", "core.bf_insert_ns / sketch.bloom_insert_ns, the paper's yardstick"},
	{"core.cm_insert_vs_ideal", "ratio", "lower", 0, "P", "core.cm_insert_ns / sketch.cm_insert_ns"},
	{"core.hll_insert_vs_ideal", "ratio", "lower", 0, "P", "core.hll_insert_ns / sketch.hll_insert_ns"},
	{"core.bf_query_vs_insert", "ratio", "lower", 0, "P", "core.bf_query_ns / core.bf_insert_ns"},

	{"she.sharded_bf_insert_ns", "ns", "lower", 0, "P", "ShardedBloomFilter.Insert: shard pick, lock, kernel"},
	{"she.sharded_cm_insert_ns", "ns", "lower", 0, "P", "ShardedCountMin.Insert"},
	{"she.sharded_hll_insert_ns", "ns", "lower", 0, "P", "ShardedHyperLogLog.Insert"},
	{"she.sharded_bf_query_ns", "ns", "lower", 0, "P", "ShardedBloomFilter.Query"},
	{"she.sharded_cm_query_ns", "ns", "lower", 0, "P", "ShardedCountMin.Frequency"},
	{"she.shard_self_ns", "ns", "lower", 0, "P", "sharded insert minus the kernel on a twin instance, mean over the three kinds: the shard lock's own cost"},
	{"she.sharded_bf_insert_2g_ns", "ns", "lower", 0, "P", "wall ns per insert with two goroutines inserting: lock contention"},

	{"server.parse_minsert_ns_per_key", "ns", "lower", 0, "P", "ParseCommand + ParseKey over the workload's own lines, per key"},
	{"server.parse_query_ns", "ns", "lower", 0, "P", "ParseCommand + ParseKey of one SKETCH.QUERY line"},
	{"server.registry_get_ns", "ns", "lower", 0, "P", "Registry.GetBytes"},
	{"server.sketch_insert_ns", "ns", "lower", 0, "P", "server.Sketch.Insert, mean over the three kinds"},
	{"server.sketch_query_ns", "ns", "lower", 0, "P", "server.Sketch.Query, mean of bloom and cm"},
	{"server.sketch_self_ns", "ns", "lower", 0, "P", "Sketch.Insert minus the sharded insert on a twin instance"},
	{"server.snapshot_ms", "ms", "lower", 0, "P", "Sketch.MarshalBinary of the three sketches, a checkpoint's unit of work"},
	{"server.peak_rss_mb", "MiB", "lower", 0, "S", "VmHWM summed over shed servers when the measured phase ends: the issue's peak_rss_mb, ungated because the tallest spike of a spiky series spreads 16 to 28 % on ingest_wal"},
	{"server.keys_per_apply", "count", "higher", 0, "S", "she_batch_keys_total / she_batch_applies_total"},
	{"server.cmds_per_apply", "count", "higher", 0, "S", "she_batch_commands_total / she_batch_applies_total"},
	{"server.cmd_minsert_p50_us", "us", "lower", 0, "S", "she_command_seconds{verb=MINSERT}, median"},
	{"server.cmd_minsert_p99_us", "us", "lower", 0, "S", "same, 99th percentile"},
	{"server.cmd_query_p50_us", "us", "lower", 0, "S", "she_command_seconds{verb=SKETCH.QUERY}, median"},
	{"server.cmd_query_p99_us", "us", "lower", 0, "S", "same, 99th percentile"},
	{"server.span_parse_us", "us", "lower", 0, "S", "median parse span over TRACE GET"},
	{"server.span_execute_us", "us", "lower", 0, "S", "median execute span"},
	{"server.span_mutate_us", "us", "lower", 0, "S", "median mutate span"},
	{"server.span_wal_append_us", "us", "lower", 0, "S", "median wal_append span"},
	{"server.span_fsync_wait_us", "us", "lower", 0, "S", "median fsync_wait span"},
	{"server.span_replack_wait_us", "us", "lower", 0, "S", "median replack_wait span"},
	{"server.allocs_per_op", "count", "lower", 0, "S", "heap allocations per command (she_go_heap_allocs_by_size_bytes_count / she_commands_total)"},
	{"server.gc_pause_p99_us", "us", "lower", 0, "S", "she_go_gc_pauses_seconds, 99th percentile"},
	{"server.sched_latency_p99_us", "us", "lower", 0, "S", "she_go_sched_latency_seconds, 99th percentile"},

	{"wal.encode_ns_per_rec", "ns", "lower", 0, "P", "wal.EncodeRecord of one MINSERT x64 record"},
	{"wal.append_ns_per_key", "ns", "lower", 0, "P", "Log.AppendBatch without sync, per key"},
	{"wal.sync_us", "us", "lower", 0, "P", "Log.Sync after a 4096-key batch, real directory"},
	{"wal.fsyncs_per_s", "1/s", "lower", 0, "S", "she_wal_fsync_seconds_count per second"},
	{"wal.fsync_p50_us", "us", "lower", 0, "S", "she_wal_fsync_seconds, median"},
	{"wal.fsync_p99_us", "us", "lower", 0, "S", "same, 99th percentile"},
	{"wal.fsync_busy_share", "ratio", "lower", 0, "S", "share of wall time inside fsync"},
	{"wal.append_p50_us", "us", "lower", 0, "S", "she_wal_append_seconds, median"},
	{"wal.append_busy_share", "ratio", "lower", 0, "S", "share of wall time inside append"},
	{"wal.keys_per_fsync", "count", "higher", 0, "S", "group-commit width: inserts per fsync"},
	{"wal.bytes_per_key", "B", "lower", 0, "P", "log bytes AppendBatch adds per key (shed's own she_wal_bytes is bytes since the last checkpoint, not a counter)"},
	{"wal.checkpoints_per_s", "1/s", "lower", 0, "S", "she_wal_checkpoint_seconds_count per second"},
	{"wal.checkpoint_p50_ms", "ms", "lower", 0, "S", "she_wal_checkpoint_seconds, median"},
	{"wal.checkpoint_busy_share", "ratio", "lower", 0, "S", "share of wall time inside checkpoints"},
	{"wal.recovery_s", "s", "lower", 0, "S", "ingest_wal: kill -9 to first PING reply of the restarted process"},
	{"wal.replayed_recs_per_s", "1/s", "higher", 0, "S", "wal_replayed_records / wal.recovery_s"},

	{"repl.write_record_ns", "ns", "lower", 0, "P", "repl.WriteRecord of one MINSERT x64 record into a discarding writer"},
	{"repl.lag_records_max", "count", "lower", 0, "S", "largest she_repl_lag_records seen, sampled every 250 ms"},
	{"repl.lag_bytes_max", "B", "lower", 0, "S", "largest she_repl_lag_bytes seen"},
	{"repl.catchup_s", "s", "lower", 0, "S", "last client reply to follower cursor = primary position"},
	{"repl.follower_applied_per_s", "1/s", "higher", 0, "S", "follower applied records per second"},
	{"repl.follower_fsync_p50_us", "us", "lower", 0, "S", "the follower's she_wal_fsync_seconds, median"},
	{"repl.primary_cpu_us_per_key", "us", "lower", 0, "S", "the primary's share of cpu_us_per_op"},
	{"repl.follower_cpu_us_per_key", "us", "lower", 0, "S", "the follower's share of cpu_us_per_op"},
	{"repl.ack_age_p50_ms", "ms", "lower", 0, "S", "she_repl_ack_age_seconds, median of the 250 ms samples"},

	{"obs.nanotime_ns", "ns", "lower", 0, "P", "obs.Nanotime"},
	{"obs.hist_observe_ns", "ns", "lower", 0, "P", "obs.Histogram.Observe"},
	{"obs.traced_overhead_pct", "%", "lower", 0, "S", "headline rate lost with every telemetry layer on at its recommended rate; on paced_wal, client.ack_p50_ms gained"},
	{"obs.traces_sampled", "count", "higher", 0, "S", "she_trace_sampled_total over the phase"},
	{"obs.audit_observations", "count", "higher", 0, "S", "she_audit_observations_total over the phase"},

	{"client.cpu_share", "ratio", "lower", 0, "C", "generator CPU / (generator + shed CPU) over the measured phase"},
	{"client.gen_late_p99_us", "us", "lower", 0, "C", "open loop: send instant - due instant, 99th percentile"},
	{"client.gen_late_max_ms", "ms", "lower", 0, "C", "open loop: the latest send"},
	{"client.flush_p50_ms", "ms", "lower", 0, "C", "closed loop: one pipelined flush, write to last reply, median"},
	{"client.flush_p99_ms", "ms", "lower", 0, "C", "same, 99th percentile"},
	{"client.query_p50_ms", "ms", "lower", 0, "C", "read latency, median (query_mix, paced_wal; the ingest workloads send no reads). Ungated only because a gated metric must exist on every workload"},
	{"client.query_p99_ms", "ms", "lower", 0, "C", "read latency, 99th percentile"},
	{"client.ack_p50_ms", "ms", "lower", 0, "C", "write latency, median over every write answered in the phase: closed loop from handing a flush to the socket, open loop from the instant the write was due; ungated: on paced_wal it follows the shared host's wake-up and fsync time, 11 to 26 % over sets of ten runs"},
	{"client.ack_p99_ms", "ms", "lower", 0, "C", "write latency, 99th percentile over every write of the phase; ungated: it spread 4 to 41 % over sets of ten runs, widest on paced_wal"},
	{"client.ack_p999_ms", "ms", "lower", 0, "C", "write latency, 99.9th percentile"},
	{"client.query_p999_ms", "ms", "lower", 0, "C", "read latency, 99.9th percentile"},
	{"client.max_ok_rps", "1/s", "higher", 0, "C", "paced_wal ladder: highest write rate with ack p99 <= 20 ms and no backlog over 1 % at the step's end"},
	{"client.backlog_end", "count", "lower", 0, "C", "open loop: requests sent and unanswered when the schedule ended"},
	{"client.samples", "count", "higher", 0, "C", "latency samples behind ack_* and query_*"},

	{"recon.explained_share", "ratio", "higher", 0, "P", "sum of probed layer self-times per op / cpu_us_per_op; far from 1 is a finding"},
}

// accuracyMetrics are functions of the seed alone: the same on every
// workload and in every run.
var accuracyMetrics = []string{"bf_fpr", "cm_are", "hll_rel_err"}
