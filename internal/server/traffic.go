package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"she/internal/obs"
	"she/internal/obs/traffic"
)

// Traffic self-telemetry verbs: HOTKEYS (per-sketch sliding-window
// heavy hitters over the sampled insert stream), CLIENT (the
// per-connection accounting registry) and MONITOR (a bounded live
// feed of sampled commands). The consumers live in internal/obs/traffic,
// the sampling decision in obs.Sampler; this file is their wire surface.

// hotRow is one sketch's track: its sampled keys and scaled top keys.
type hotRow struct {
	name    string
	sampled uint64
	top     []traffic.HotEntry
}

// hotRows reads every sketch's track, in name order, for HOTKEYS
// and the overload ladder's blame line; k is as for Track.Top.
func (s *Server) hotRows(k, rate int) []hotRow {
	var rows []hotRow
	for _, in := range s.reg.List() {
		if top, sampled := in.Sketch.hot.Load().Top(k, rate); sampled > 0 {
			rows = append(rows, hotRow{in.Name, sampled, top})
		}
	}
	return rows
}

// cmdHotkeys serves HOTKEYS [name] [k]. Bare HOTKEYS summarizes every
// sketch with a track; with a name it lists that sketch's top-k keys,
// counts scaled back to estimated raw traffic (sampled estimate ×
// sample rate). A track exists while sampling is on, and with its sketch.
func (c *conn) cmdHotkeys(cmd Command) error {
	s, w := c.s, c.w
	rate := s.sample.Traffic.Every()
	if rate <= 0 {
		return fmt.Errorf("%s: traffic sampling is disabled (start shed with -traffic-sample)", cmd.Name)
	}
	if len(cmd.Args) == 0 {
		var lines []string
		for _, h := range s.hotRows(3, rate) {
			row := fmt.Sprintf("%s sampled_keys=%d", h.name, h.sampled)
			top := make([]string, len(h.top))
			for i, e := range h.top {
				top[i] = fmt.Sprintf("%d:%d", e.Key, e.Count)
			}
			if len(top) > 0 {
				row += " top=" + strings.Join(top, ",")
			}
			lines = append(lines, row)
		}
		writeArray(w, lines)
		return nil
	}
	k := 0
	if len(cmd.Args) == 2 {
		v, err := strconv.ParseUint(cmd.Args[1], 10, 64)
		if err != nil || v == 0 {
			return fmt.Errorf("%s: bad k %q", cmd.Name, cmd.Args[1])
		}
		k = int(v)
	}
	sk, err := s.reg.Get(cmd.Args[0])
	if err != nil {
		return err
	}
	entries, _ := sk.hot.Load().Top(k, rate)
	lines := make([]string, len(entries))
	for i, e := range entries {
		lines[i] = fmt.Sprintf("key=%d est_count=%d sampled=%d", e.Key, e.Count, e.Sampled)
	}
	writeArray(w, lines)
	return nil
}

// cmdClient serves the per-connection accounting registry:
//
//	CLIENT LIST            one row per connection
//	CLIENT KILL <addr>     close the connection with that remote addr
//	CLIENT GETNAME         this connection's name
//	CLIENT SETNAME <name>  name this connection (sketch-name alphabet)
//
// KILL refuses replication links: a replica that cannot keep up is
// evicted by the ReplicaMaxLagBytes policy, which detaches its ack
// cursor from the Tracker cleanly — an operator racing that state
// with a raw close is exactly the corruption KILL must not offer.
func (c *conn) cmdClient(cmd Command) error {
	s, tc, w := c.s, c.tc, c.w
	switch strings.ToUpper(cmd.Args[0]) {
	case "LIST":
		if len(cmd.Args) != 1 {
			return fmt.Errorf("CLIENT LIST takes no arguments")
		}
		rows := s.clients.List()
		lines := make([]string, len(rows))
		for i, c := range rows {
			lines[i] = renderClient(c)
		}
		writeArray(w, lines)
	case "KILL":
		if len(cmd.Args) != 2 {
			return fmt.Errorf("CLIENT KILL: want addr")
		}
		victim := s.clients.Find(cmd.Args[1])
		if victim == nil {
			return fmt.Errorf("CLIENT KILL: no such client %q", cmd.Args[1])
		}
		if victim.IsReplica() {
			return fmt.Errorf("CLIENT KILL: %s is a replication link; refusing (slow replicas are evicted via -repl-max-lag)", cmd.Args[1])
		}
		victim.Kill()
		s.ctr.ClientsKilled.Inc()
		writeSimple(w, "OK")
	case "GETNAME":
		if len(cmd.Args) != 1 {
			return fmt.Errorf("CLIENT GETNAME takes no arguments")
		}
		writeSimple(w, tc.Name())
	case "SETNAME":
		if len(cmd.Args) != 2 {
			return fmt.Errorf("CLIENT SETNAME: want name")
		}
		if !ValidName(cmd.Args[1]) {
			return fmt.Errorf("CLIENT SETNAME: invalid name %q (same alphabet as sketch names)", cmd.Args[1])
		}
		tc.SetName(cmd.Args[1])
		writeSimple(w, "OK")
	default:
		return fmt.Errorf("%s: unknown subcommand %q (want LIST, KILL, GETNAME or SETNAME)", cmd.Name, cmd.Args[0])
	}
	return nil
}

// renderClient renders one CLIENT LIST row, Redis-style key=value
// pairs. cmds breaks down per verb as verb:count, highest first is
// not guaranteed — rows are diagnostic, not a stable API.
func renderClient(c traffic.ClientInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "id=%d addr=%s name=%s age=%d idle=%d in=%d out=%d cmds=%d keys=%d batches=%d verb=%s replica=%t monitor=%t",
		c.ID, c.Addr, c.Name,
		int64(c.Age/time.Second), int64(c.Idle/time.Second),
		c.BytesIn, c.BytesOut, c.Cmds, c.Keys, c.Batches,
		c.Verb, c.Replica, c.Monitor)
	if len(c.VerbCounts) > 0 {
		verbs := make([]string, 0, len(c.VerbCounts))
		for v := range c.VerbCounts {
			verbs = append(verbs, v)
		}
		// Stable order for tests and eyeballs.
		sort.Strings(verbs)
		parts := make([]string, len(verbs))
		for i, v := range verbs {
			parts[i] = fmt.Sprintf("%s:%d", v, c.VerbCounts[v])
		}
		b.WriteString(" per_verb=")
		b.WriteString(strings.Join(parts, ","))
	}
	return b.String()
}

// cmdMonitor turns the connection into a MONITOR feed: +OK, then
// one +frame line per sampled command until the client hangs up or
// the server drains. The publisher never blocks on this consumer —
// frames it cannot buffer are dropped and counted in
// monitor_dropped_total — and the feed's writes carry the configured
// write deadline, so a stuck socket cannot park this goroutine forever
// either.
func (c *conn) cmdMonitor(Command) error {
	s, r, w := c.s, c.r, c.w
	// Subscribed before +OK goes out: a command sent after the client has
	// read the +OK is in the feed.
	sub := s.hub.Subscribe()
	defer s.hub.Unsubscribe(sub)
	writeSimple(w, "OK")
	if w.Flush() != nil {
		return nil
	}
	c.tc.SetMonitor()
	// The read loop's only job now is hangup detection (the command loop
	// took the idle deadline off): any input or error ends the feed. Shutdown
	// still unblocks the read via its deadline poke.
	hangup := make(chan struct{})
	go func() {
		defer close(hangup)
		for {
			if _, err := r.ReadByte(); err != nil {
				return
			}
		}
	}()
	for {
		select {
		case e, ok := <-sub.C:
			if !ok {
				return nil
			}
			// Redis MONITOR shape: epoch-seconds, origin, command.
			writeSimple(w, fmt.Sprintf("%.6f [%s] %s",
				float64(e.Time.UnixMicro())/1e6, e.Addr, e.Line))
			if w.Flush() != nil {
				return nil
			}
		case <-hangup:
			return nil
		case <-s.done:
			return nil
		}
	}
}

// writeTrafficMetrics renders the she_traffic_* families: sampler
// state, client accounting totals and MONITOR health. The she_hotkeys_*
// samples are written at each sketch's visit in writeMetrics.
func (s *Server) writeTrafficMetrics(p *obs.PromWriter) {
	bytesIn, bytesOut, monitors := s.clients.Totals()
	p.Gauge("she_traffic_sample_every", float64(s.sample.Traffic.Every()))
	p.Counter("she_traffic_sampled_total", float64(s.sample.Traffic.Sampled()))
	p.Gauge("she_traffic_clients", float64(s.clients.Count()))
	p.Gauge("she_traffic_client_bytes_in", float64(bytesIn))
	p.Gauge("she_traffic_client_bytes_out", float64(bytesOut))
	p.Gauge("she_traffic_monitor_subscribers", float64(monitors))
	p.Counter("she_traffic_monitor_dropped_total", float64(s.hub.Dropped()))
}
