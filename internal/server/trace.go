package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"she/internal/obs"
	"she/internal/obs/xtrace"
	"she/internal/wal"
)

// Request tracing: the server half of internal/obs/xtrace. The
// per-connection loop opens a trace for each line the sampler picks at
// the trace rate (conn.go), mutation handlers add WAL-append spans and
// register the append position in the ship table here, the
// replication stream (repl.go) looks the position up to stamp the REC
// frame and record ship/ack spans, and the TRACE verb family serves
// retained traces as JSON.

// traceExemplar links a verb's latency histogram to a concrete
// retained trace: the most recent sampled command of that verb, with
// its measured duration.
type traceExemplar struct {
	id  uint64
	dur time.Duration
}

// shipEntryCap bounds the ship table. Entries are only needed between
// a sampled append and its replication ship — moments on a healthy
// stream — so a small FIFO suffices; at 1-in-256 sampling the cap is
// ~256k unsampled commands of slack.
const shipEntryCap = 1024

// shipTable maps a WAL append position to the sampled trace that
// produced the record. Keyed by (segment, offset) only: the snapshot
// generation can advance between the append and the tail read, but
// segment numbering survives checkpoints. The count is kept in an
// atomic so the replication stream skips the lock entirely while no
// traces are in flight — the common case at production sample rates.
type shipTable struct {
	n  atomic.Int64
	mu sync.Mutex
	// entries is FIFO, oldest first; lookups scan backwards because
	// the streamed record is almost always the newest entry.
	entries []shipEntry
}

type shipEntry struct {
	seg uint64
	off int64
	tr  *xtrace.Trace
}

// put registers a sampled append at its record's end cursor.
func (st *shipTable) put(pos wal.Cursor, tr *xtrace.Trace) {
	if tr == nil {
		return
	}
	st.mu.Lock()
	if len(st.entries) >= shipEntryCap {
		st.entries = st.entries[1:]
		st.n.Add(-1)
	}
	st.entries = append(st.entries, shipEntry{seg: pos.Seg, off: pos.Off, tr: tr})
	st.n.Add(1)
	st.mu.Unlock()
}

// lookup returns the trace registered at the record-end position, or
// nil. The entry is consumed: each record ships to each replica once
// per session, and with several replicas only the first ship traces —
// span bloat from N replicas is worse than the loss.
func (st *shipTable) lookup(end wal.Cursor) *xtrace.Trace {
	if st.n.Load() == 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := len(st.entries) - 1; i >= 0; i-- {
		e := st.entries[i]
		if e.seg == end.Seg && e.off == end.Off {
			st.entries = append(st.entries[:i], st.entries[i+1:]...)
			st.n.Add(-1)
			return e.tr
		}
	}
	return nil
}

// cmdTrace serves the TRACE verb family:
//
//	TRACE GET              every retained trace, newest first
//	TRACE GET <id>         one trace by its 16-hex-digit ID
//	TRACE GET SLOWEST [n]  the n slowest retained traces (default 10)
//	TRACE SAMPLE           report the 1-in-N sampling rate (0 = off)
//	TRACE SAMPLE <n>       set the rate at runtime
//	TRACE RESET            drop every retained trace
//
// GET returns one compact JSON document per array line: trace
// identity, wall-clock start, duration, and the spans with start
// offsets and durations in nanoseconds.
func (c *conn) cmdTrace(cmd Command) error {
	s, w := c.s, c.w
	if len(cmd.Args) == 0 {
		cmd.Args = []string{"GET"} // bare TRACE means GET, as bare SLOWLOG does
	}
	switch strings.ToUpper(cmd.Args[0]) {
	case "GET":
		traces, err := s.traceSelect(cmd.Args[1:])
		if err != nil {
			return err
		}
		lines := make([]string, len(traces))
		for i, t := range traces {
			b, err := json.Marshal(t.View())
			if err != nil {
				return fmt.Errorf("TRACE GET: %v", err)
			}
			lines[i] = string(b)
		}
		writeArray(w, lines)
	case "SAMPLE":
		switch len(cmd.Args) {
		case 1:
			writeInt(w, int64(s.sample.Trace.Every()))
		case 2:
			n, err := strconv.Atoi(cmd.Args[1])
			if err != nil || n < 0 {
				return fmt.Errorf("TRACE SAMPLE: bad rate %q (want a non-negative 1-in-N integer)", cmd.Args[1])
			}
			s.sample.Trace.Set(n)
			writeSimple(w, "OK")
		default:
			return fmt.Errorf("TRACE SAMPLE: want at most one rate argument")
		}
	case "RESET":
		if len(cmd.Args) != 1 {
			return fmt.Errorf("TRACE RESET takes no arguments")
		}
		s.tracer.Reset()
		writeSimple(w, "OK")
	default:
		return fmt.Errorf("TRACE: unknown subcommand %q (want GET, SAMPLE or RESET)", cmd.Args[0])
	}
	return nil
}

// traceSelect resolves the TRACE GET argument forms to a trace list.
func (s *Server) traceSelect(args []string) ([]*xtrace.Trace, error) {
	switch {
	case len(args) == 0:
		return s.tracer.All(), nil
	case strings.EqualFold(args[0], "SLOWEST"):
		n := 10
		if len(args) == 2 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("TRACE GET SLOWEST: bad count %q", args[1])
			}
			n = v
		} else if len(args) > 2 {
			return nil, fmt.Errorf("TRACE GET SLOWEST: want at most one count argument")
		}
		return s.tracer.Slowest(n), nil
	case len(args) == 1:
		id, ok := xtrace.ParseID(args[0])
		if !ok {
			return nil, fmt.Errorf("TRACE GET: bad trace id %q (want hex)", args[0])
		}
		t := s.tracer.Get(id)
		if t == nil {
			return nil, fmt.Errorf("TRACE GET: no retained trace %s (evicted, reset, or never sampled)", args[0])
		}
		return []*xtrace.Trace{t}, nil
	default:
		return nil, fmt.Errorf("TRACE GET: want no argument, an id, or SLOWEST [n]")
	}
}

// writeTraceMetrics renders the she_trace_* families: sampling state
// and ring occupancy as gauges, lifetime sampling counters, and the
// per-verb exemplar series tying she_command_seconds to a retained
// trace ID.
func (s *Server) writeTraceMetrics(p *obs.PromWriter) {
	st := s.tracer.Snapshot()
	p.Gauge("she_trace_sample_every", "", float64(s.sample.Trace.Every()))
	p.Gauge("she_trace_retained", "", float64(st.Retained))
	p.Gauge("she_trace_pinned", "", float64(st.Pinned))
	p.Counter("she_trace_sampled_total", "", float64(s.sample.Trace.Sampled()))
	p.Counter("she_trace_joined_total", "", float64(st.Joined))
	p.Counter("she_trace_finished_total", "", float64(st.Finished))
	p.Counter("she_trace_evicted_total", "", float64(st.Evicted))
	for i := range verbs {
		ex := s.exemplars[i].Load()
		if ex == nil {
			continue
		}
		labels := fmt.Sprintf("verb=%q,trace_id=%q",
			obs.EscapeLabel(verbs[i].name), xtrace.FormatID(ex.id))
		p.Gauge("she_trace_exemplar_seconds", labels, ex.dur.Seconds())
	}
}
