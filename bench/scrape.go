package main

import "encoding/json"

// traceView is the part of a TRACE GET element the benchmark reads.
type traceView struct {
	Spans []struct {
		Name  string `json:"name"`
		DurNs int64  `json:"dur_ns"`
	} `json:"spans"`
}

// spanMedians returns, per span name, the median duration in µs over
// the traces shed retained.
func spanMedians(traces []string) map[string]float64 {
	byName := map[string][]float64{}
	for _, t := range traces {
		var tv traceView
		if json.Unmarshal([]byte(t), &tv) != nil {
			continue
		}
		for _, s := range tv.Spans {
			byName[s.Name] = append(byName[s.Name], float64(s.DurNs)/1e3)
		}
	}
	out := map[string]float64{}
	for name, v := range byName {
		out[name] = median(v)
	}
	return out
}

// scraped derives the S metrics: what shed itself published between
// the start and the end of the measured phase of a telemetry run.
// Outside one it does nothing.
func (rc *runCtx) scraped(st *phaseStats) {
	if len(st.after) == 0 {
		return
	}
	m := rc.res.M
	b, a := st.before[0], st.after[0]
	delta := func(series string) float64 { return a[series] - b[series] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	secs := delta("she_uptime_seconds")
	hist := func(b, a promSnap, name, labels string) promHist {
		return a.hist(name, labels).sub(b.hist(name, labels))
	}

	applies := delta("she_batch_applies_total")
	m["server.keys_per_apply"] = ratio(delta("she_batch_keys_total"), applies)
	m["server.cmds_per_apply"] = ratio(delta("she_batch_commands_total"), applies)
	minsert := hist(b, a, "she_command_seconds", `verb="MINSERT"`)
	m["server.cmd_minsert_p50_us"] = minsert.quantile(0.5, true) * 1e6
	m["server.cmd_minsert_p99_us"] = minsert.quantile(0.99, true) * 1e6
	query := hist(b, a, "she_command_seconds", `verb="SKETCH.QUERY"`)
	m["server.cmd_query_p50_us"] = query.quantile(0.5, true) * 1e6
	m["server.cmd_query_p99_us"] = query.quantile(0.99, true) * 1e6
	spans := spanMedians(st.traces)
	for _, name := range []string{"parse", "execute", "mutate", "wal_append", "fsync_wait", "replack_wait"} {
		m["server.span_"+name+"_us"] = spans[name]
	}
	m["server.allocs_per_op"] = ratio(delta("she_go_heap_allocs_by_size_bytes_count"), delta("she_commands_total"))
	m["server.gc_pause_p99_us"] = hist(b, a, "she_go_gc_pauses_seconds", "").quantile(0.99, false) * 1e6
	m["server.sched_latency_p99_us"] = hist(b, a, "she_go_sched_latency_seconds", "").quantile(0.99, false) * 1e6

	fsync := hist(b, a, "she_wal_fsync_seconds", "")
	m["wal.fsyncs_per_s"] = ratio(fsync.count(), secs)
	m["wal.fsync_p50_us"] = fsync.quantile(0.5, true) * 1e6
	m["wal.fsync_p99_us"] = fsync.quantile(0.99, true) * 1e6
	m["wal.fsync_busy_share"] = ratio(fsync.sum, secs)
	appnd := hist(b, a, "she_wal_append_seconds", "")
	m["wal.append_p50_us"] = appnd.quantile(0.5, true) * 1e6
	m["wal.append_busy_share"] = ratio(appnd.sum, secs)
	m["wal.keys_per_fsync"] = ratio(delta("she_inserts_total"), fsync.count())
	chk := hist(b, a, "she_wal_checkpoint_seconds", "")
	m["wal.checkpoints_per_s"] = ratio(chk.count(), secs)
	m["wal.checkpoint_p50_ms"] = chk.quantile(0.5, true) * 1e3
	m["wal.checkpoint_busy_share"] = ratio(chk.sum, secs)

	m["obs.traces_sampled"] = delta("she_trace_sampled_total")
	m["obs.audit_observations"] = a.sumPrefix("she_audit_observations_total") - b.sumPrefix("she_audit_observations_total")

	if len(st.after) == 2 {
		fb, fa := st.before[1], st.after[1]
		fsecs := fa["she_uptime_seconds"] - fb["she_uptime_seconds"]
		m["repl.follower_applied_per_s"] = ratio(fa["she_repl_follower_applied_records"]-fb["she_repl_follower_applied_records"], fsecs)
		m["repl.follower_fsync_p50_us"] = hist(fb, fa, "she_wal_fsync_seconds", "").quantile(0.5, true) * 1e6
		m["repl.lag_records_max"] = st.lagRecs
		m["repl.lag_bytes_max"] = st.lagByte
		m["repl.ack_age_p50_ms"] = median(st.ackAge)
	}
}
