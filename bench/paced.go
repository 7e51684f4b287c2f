package main

import (
	"bytes"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// The paced workload's fixed rates (requests a second) and the limits
// its informational ladder applies.
const (
	pacedWriteRate = 4000
	pacedReadRate  = 2000
	ladderStep     = 3 * time.Second
	ladderP99Limit = 20 * time.Millisecond
	maxLateP99     = time.Millisecond // a generator later than this did not measure shed
)

var ladderRates = []float64{8000, 16000, 32000}

// pacedConn is one open-loop connection: requests go out on a schedule
// that never waits for replies, and a reader clocks each reply from the
// instant its request was due.
type pacedConn struct {
	cl   *client
	sc   *script
	next int // requests handed out so far; request i is sc.reqs[i % len]

	replied, keys atomic.Int64 // cumulative; read by the sampler
	attempted     int64
	fails         failures
}

// segment is one stretch of a pacedConn's schedule at one rate.
type segment struct {
	rate    float64
	dur     time.Duration
	lat     dist  // reply instant − due instant
	late    dist  // send instant − due instant
	backlog int64 // sent − answered when the last request went out
	total   int64
}

// side is one connection's part of a stretch: its schedule and what
// its reader has answered so far.
type side struct {
	pc       *pacedConn
	seg      *segment
	p        *pacer
	base     int // pc.next when the stretch began
	answered atomic.Int64
	done     bool // the whole schedule has been sent
	read     chan error
}

// runSegments runs one stretch on every connection side by side: on
// each, seg.rate·seg.dur requests go out on schedule, and the call
// returns once each has its reply (or the reply timeout has passed).
//
// Each connection has its own reader, but one sender serves them all. A
// sender sleeps in nanosleep(2), which the Go runtime takes for a system
// call that keeps its P. With a sender per connection the two Ps of a
// two-core box were both held by sleeping senders much of the time, and
// a reader whose reply had arrived waited for sysmon to take one back:
// from run to run the read p50 went from 0.5 to 1.5 ms and the ack p50
// from 0.5 to 0.8 ms, which measured the generator's scheduler and not
// shed. One sender holds one P and leaves the other to the readers.
func runSegments(conns []*pacedConn, segs []*segment) error {
	epoch := time.Now()
	sides := make([]*side, len(conns))
	for i, pc := range conns {
		seg := segs[i]
		total := int(seg.rate * seg.dur.Seconds())
		seg.total = int64(total)
		sd := &side{pc: pc, seg: seg, p: newPacer(0, seg.rate, total), base: pc.next, read: make(chan error, 1)}
		sides[i] = sd
		go sd.readReplies(epoch)
	}

	var sendErr error
	for sendErr == nil {
		now := time.Since(epoch)
		sleep, allDone := time.Duration(1<<62), true
		for _, sd := range sides {
			if sd.done {
				continue
			}
			from, to, wait, done := sd.p.step(now)
			if sendErr = sd.send(from, to); sendErr != nil {
				break
			}
			for i := from; i < to; i++ {
				sd.seg.late.add(int64(now-sd.p.due(i)), 1)
			}
			if sd.done = done; done {
				sd.seg.backlog = int64(sd.p.next) - sd.answered.Load()
			} else {
				sleep, allDone = min(sleep, wait), false
			}
		}
		if allDone || sendErr != nil {
			break
		}
		pause(sleep)
	}
	err := sendErr
	for _, sd := range sides {
		sd.pc.attempted += int64(sd.p.next)
		sd.pc.next = sd.base + sd.p.total
		if sendErr != nil {
			sd.pc.cl.c.SetReadDeadline(time.Now()) // release the reader
		}
		if rerr := <-sd.read; err == nil {
			err = rerr
		}
	}
	return err
}

// send writes requests [from, to) of the schedule to the connection.
func (sd *side) send(from, to int) error {
	sc := sd.pc.sc
	n := len(sc.reqs)
	for i := from; i < to; {
		// Requests are contiguous in the script up to its end.
		lo := (sd.base + i) % n
		hi := min(lo+to-i, n)
		if _, err := sd.pc.cl.c.Write(sc.bytes(lo, hi)); err != nil {
			return err
		}
		i += hi - lo
	}
	return nil
}

// readReplies checks every reply of the stretch and clocks it from the
// instant its request was due.
func (sd *side) readReplies(epoch time.Time) {
	pc, total := sd.pc, sd.p.total
	n := len(pc.sc.reqs)
	pc.cl.c.SetReadDeadline(epoch.Add(sd.seg.dur + replyTimeout))
	for k := 0; k < total; k++ {
		l, err := pc.cl.line()
		if err != nil {
			pc.fails.add("%d replies missing: %v", total-k, err)
			pc.fails.n += int64(total - k - 1)
			sd.read <- err
			return
		}
		i := (sd.base + k) % n
		rq := pc.sc.reqs[i]
		if msg := check(rq.kind, rq.nkeys, l); msg != "" {
			pc.fails.add("command %q answered %q: %s", bytes.TrimSpace(pc.sc.bytes(i, i+1)), l, msg)
		}
		sd.seg.lat.add(int64(pc.cl.stamp.Sub(epoch)-sd.p.due(k)), 1)
		sd.answered.Add(1)
		pc.replied.Add(1)
		pc.keys.Add(int64(rq.nkeys))
	}
	sd.read <- nil
}

// runPaced is paced_wal.
func runPaced(rc *runCtx) error {
	in := genPaced(rc.opt.seed)
	err := rc.setup(func(cl *client) error {
		for s, keys := range in.preload {
			if err := cl.minsert(sketchDefs[s].name, keys); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	conns := []*pacedConn{{sc: &in.writer}, {sc: &in.reader}}
	for _, pc := range conns {
		if pc.cl, err = dial(rc.primary.addr); err != nil {
			return err
		}
		defer pc.cl.close()
	}
	// both runs the writer and the reader side by side for one stretch.
	both := func(writeRate float64, dur time.Duration) (w, r *segment, err error) {
		w = &segment{rate: writeRate, dur: dur}
		r = &segment{rate: pacedReadRate, dur: dur}
		if err := runSegments(conns, []*segment{w, r}); err != nil {
			return nil, nil, fmt.Errorf("%w (%s%s)", err, conns[0].fails.first, conns[1].fails.first)
		}
		return w, r, nil
	}
	count := func() (keys, ops int64) {
		for _, pc := range conns {
			keys += pc.keys.Load()
			ops += pc.replied.Load()
		}
		return keys, ops
	}

	if _, _, err := both(pacedWriteRate, rc.opt.warmup); err != nil {
		return err
	}
	var w *segment
	for attempt := 1; ; attempt++ {
		sm, err := rc.startSampler(count)
		if err != nil {
			return err
		}
		var r *segment
		w, r, err = both(pacedWriteRate, rc.opt.seconds)
		st2, err2 := sm.finish()
		if err != nil {
			return err
		}
		if err2 != nil {
			return err2
		}
		// A generator that ran late measured itself, not shed: the phase
		// is run again once. A second late phase stands, with a warning:
		// its replies were all checked, its lateness is reported beside its
		// latencies, and on a box that stalls the generator for
		// milliseconds twice in a row a third try would fare no better.
		st2.ack, st2.query = w.lat, r.lat
		rc.summarize(st2, false, 1)
		rc.scraped(st2)
		late := &w.late
		late.merge(&r.late)
		rc.res.M["client.gen_late_p99_us"] = float64(late.quantile(0.99)) / 1e3
		rc.res.M["client.gen_late_max_ms"] = float64(late.max()) / 1e6
		rc.res.M["client.backlog_end"] = float64(w.backlog + r.backlog)
		lateP99 := time.Duration(late.quantile(0.99))
		if lateP99 <= maxLateP99 {
			break
		}
		if attempt == 2 {
			rc.res.Checks = append(rc.res.Checks, fmt.Sprintf("LATE GENERATOR: p99 of send lateness %v > %v in two phases running; ack_* and query_* of this run include the generator's own delay", lateP99, maxLateP99))
			break
		}
		fmt.Fprintf(os.Stderr, "paced_wal: send lateness p99 %v > %v, running the phase again\n", lateP99, maxLateP99)
	}

	if rc.ladder {
		// Informational: the highest write rate whose acks still meet
		// the limit without a backlog left at the end of the step.
		meets := func(seg *segment) bool {
			return time.Duration(seg.lat.quantile(0.99)) <= ladderP99Limit && float64(seg.backlog) <= 0.01*float64(seg.total)
		}
		okRate, climbing := 0.0, meets(w)
		if climbing {
			okRate = pacedWriteRate
		}
		for _, rate := range ladderRates {
			lw, _, err := both(rate, ladderStep)
			if err != nil {
				return err
			}
			if climbing = climbing && meets(lw); climbing {
				okRate = rate
			}
			rc.res.Checks = append(rc.res.Checks, fmt.Sprintf("ladder %5.0f writes/s: ack %v, backlog at end %d of %d",
				rate, lw.lat.timing(), lw.backlog, lw.total))
		}
		rc.res.M["client.max_ok_rps"] = okRate
	}
	for _, pc := range conns {
		rc.res.Attempted += pc.attempted
		rc.res.fail(pc.fails)
	}
	rc.res.Checks = append(rc.res.Checks, "every reply parsed; every bloom read of a key the writer keeps re-inserting had to answer 1")
	return rc.epilogue(rc.onPrimary)
}
