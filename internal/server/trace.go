package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"she/internal/obs"
	"she/internal/obs/xtrace"
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

// tracedRec is a sampled command's WAL record on its way to a replica:
// its end position, its trace and, once shipped, when the ship flush
// ended. Positions compare by segment and offset only: the snapshot
// generation can advance between the append and the tail read, but
// segment numbering survives checkpoints.
type tracedRec struct {
	seg    uint64
	off    int64
	shipNs int64
	tr     *xtrace.Trace
}

// The ship table (Server.ship) holds sampled appends until the stream
// ships them, and each replication session's replack table holds the
// shipped ones until the follower acknowledges them. An entry is only
// needed for moments on a healthy stream, so small rings suffice: at
// 1-in-256 sampling the ship table is ~256k commands of slack, and
// past either size the oldest trace merely lacks that span.
const (
	shipTableSize = 1024
	ackTableSize  = 512
)

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
	p.Gauge("she_trace_sample_every", float64(s.sample.Trace.Every()))
	p.Gauge("she_trace_retained", float64(st.Retained))
	p.Gauge("she_trace_pinned", float64(st.Pinned))
	p.Counter("she_trace_sampled_total", float64(s.sample.Trace.Sampled()))
	p.Counter("she_trace_joined_total", float64(st.Joined))
	p.Counter("she_trace_finished_total", float64(st.Finished))
	p.Counter("she_trace_evicted_total", float64(st.Evicted))
	for i := range verbs {
		ex := s.exemplars[i].Load()
		if ex == nil {
			continue
		}
		p.Gauge("she_trace_exemplar_seconds", ex.dur.Seconds(), "verb", verbs[i].name, "trace_id", xtrace.FormatID(ex.id))
	}
}
