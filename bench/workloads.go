package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spec is one workload: its name, why it exists (printed with every
// run and kept in BENCHMARK.json), and what its servers look like.
type spec struct {
	name   string
	why    string
	wal    bool // primary runs with -wal
	repl   bool // plus one follower in its own process
	setups int  // how many times set-up is run and timed
	run    func(*runCtx) error
}

// setup_s is a median over several set-ups. The ingest workloads' takes
// milliseconds (process start and three creates), which the scheduler
// moves by a quarter from one to the next, so they take many; a preload
// takes a quarter of a second to a second and is steadier.
var specs = []spec{
	{name: "ingest_mem", setups: 25, run: runIngest,
		why: "closed loop, MINSERT x64 pipelined, no WAL: hashing, SHE kernels, shard lock, tokenizer and batch apply do the work"},
	{name: "ingest_wal", wal: true, setups: 25, run: runIngest,
		why: "same bytes with -wal, then kill -9 and recovery: WAL append, group-commit fsync and checkpoints dominate"},
	{name: "ingest_repl", wal: true, repl: true, setups: 25, run: runIngest,
		why: "same bytes with an asynchronous follower in its own process: REC ship, follower apply and fsync, ack"},
	{name: "query_mix", setups: 5, run: runQuery,
		why: "closed loop, 40/40/20 bloom query, cm query, insert one command a line: slow parse path, query kernels, read beside write"},
	{name: "paced_wal", wal: true, setups: 9, run: runPaced,
		why: "open loop, 4000 writes/s and 2000 reads/s clocked from their due time: what a caller waits for under fsync"},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// options are one invocation's settings, the same for every workload.
type options struct {
	seed    uint64
	seconds time.Duration // measured phase
	warmup  time.Duration // discarded phase before it
	quick   bool          // one set-up instead of the workload's several
	nproc   int
	bin     string // shed binary
	tmp     string // scratch directory under $TMPDIR
}

// telemetryArgs are shed's telemetry layers at the rates its README
// recommends: what the traced run switches on.
var telemetryArgs = []string{"-trace-sample", "256", "-audit-sample", "0.0009765625", "-traffic-sample", "256", "-slow-ms", "10"}

// result is what one run of one workload measured.
type result struct {
	Workload  string
	Seed      uint64
	M         map[string]float64
	Timings   map[string]timing // the duration metrics with their sample counts
	Attempted int64
	Failed    int64
	FirstFail string
	Checks    []string // what each output check covered
}

func (r *result) fail(f failures) {
	if r.Failed == 0 {
		r.FirstFail = f.first
	}
	r.Failed += f.n
}

// runCtx is one run of one workload in progress.
type runCtx struct {
	opt       options
	spec      *spec
	telemetry bool
	ladder    bool
	res       *result

	dir               string // this set-up's WAL directories live here
	primary, follower *proc
	primaryArgs       []string
	ctl, fctl         *client // control connections: set-up, checks, ROLE
}

// runWorkload runs sp once: set-up (several times, for setup_s), warm-up,
// measured phase, checks and epilogue. With telemetry shed runs with
// the traced run's flags and the S metrics are scraped.
func runWorkload(sp *spec, opt options, telemetry, ladder bool) (*result, error) {
	rc := &runCtx{opt: opt, spec: sp, telemetry: telemetry, ladder: ladder,
		res: &result{Workload: sp.name, Seed: opt.seed, M: map[string]float64{}, Timings: map[string]timing{}}}
	defer rc.teardown()
	if err := sp.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	return rc.res, nil
}

func (rc *runCtx) teardown() {
	for _, cl := range []*client{rc.ctl, rc.fctl} {
		if cl != nil {
			cl.close()
		}
	}
	rc.ctl, rc.fctl = nil, nil
	for _, p := range []*proc{rc.primary, rc.follower} {
		if p != nil {
			p.kill()
		}
	}
	rc.primary, rc.follower = nil, nil
	if rc.dir != "" {
		os.RemoveAll(rc.dir)
		rc.dir = ""
	}
}

// setup brings the workload's servers from nothing to ready
// spec.setups times over and keeps the last: process start, sketch
// creation, the follower's full sync, and whatever preload loads.
// setup_s is the median, so that work a later change moves into
// start-up shows.
func (rc *runCtx) setup(preload func(*client) error) error {
	reps := rc.spec.setups
	if rc.opt.quick {
		reps = 1
	}
	var took []float64
	for len(took) < reps {
		rc.teardown()
		t0 := time.Now()
		if err := rc.startServers(); err != nil {
			return err
		}
		if preload != nil {
			if err := preload(rc.ctl); err != nil {
				return err
			}
		}
		if rc.follower != nil {
			if err := rc.waitCaughtUp(); err != nil {
				return err
			}
		}
		took = append(took, time.Since(t0).Seconds())
	}
	rc.res.M["setup_s"] = median(took)
	return nil
}

func (rc *runCtx) startServers() error {
	dir, err := os.MkdirTemp(rc.opt.tmp, rc.spec.name+"-")
	if err != nil {
		return err
	}
	rc.dir = dir
	var args []string
	if rc.telemetry {
		args = append(args, telemetryArgs...)
	}
	rc.primaryArgs = args
	if rc.spec.wal {
		rc.primaryArgs = append(rc.primaryArgs, "-wal", filepath.Join(dir, "wal"))
	}
	if rc.primary, err = startShed(rc.opt.bin, rc.opt.nproc, rc.telemetry, rc.primaryArgs...); err != nil {
		return err
	}
	if rc.ctl, err = dial(rc.primary.addr); err != nil {
		return err
	}
	if rc.spec.repl {
		fargs := append(append([]string(nil), args...), "-wal", filepath.Join(dir, "wal2"), "-replicaof", rc.primary.addr)
		if rc.follower, err = startShed(rc.opt.bin, rc.opt.nproc, rc.telemetry, fargs...); err != nil {
			return err
		}
		if rc.fctl, err = dial(rc.follower.addr); err != nil {
			return err
		}
		if err := rc.waitFollowerLinked(); err != nil {
			return err
		}
	}
	for _, d := range sketchDefs {
		if _, err := rc.ctl.do("SKETCH.CREATE " + d.name + " " + d.kind + " " + strings.Join(d.params(), " ")); err != nil {
			return err
		}
	}
	return nil
}

// waitFollowerLinked waits for the follower's first full sync.
func (rc *runCtx) waitFollowerLinked() error {
	deadline := time.Now().Add(replyTimeout)
	for {
		role, err := rc.fctl.do("ROLE")
		if err != nil {
			return err
		}
		conn, _ := field(role, "connected")
		syncs, _ := fieldInt(role, "full_syncs")
		if conn == "true" && syncs >= 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not linked after %v: %v", replyTimeout, role)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitCaughtUp returns once the follower's ack cursor has reached the
// primary's position: the follower has applied as many records as the
// primary has appended (both count from the follower's full sync of a
// then-empty primary) and the primary has an ack for every record it
// sent. The primary must be idle, or the target moves.
func (rc *runCtx) waitCaughtUp() error {
	deadline := time.Now().Add(replyTimeout)
	for {
		info, err := rc.ctl.do("INFO")
		if err != nil {
			return err
		}
		frole, err := rc.fctl.do("ROLE")
		if err != nil {
			return err
		}
		prole, err := rc.ctl.do("ROLE")
		if err != nil {
			return err
		}
		appended, err1 := fieldInt(info, "wal_records")
		applied, err2 := fieldInt(frole, "applied_records")
		lag, err3 := fieldInt(prole, "lag_records")
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("catch-up: cannot read positions: %v %v %v", err1, err2, err3)
		}
		if appended == applied && lag == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not caught up after %v: primary appended %d, follower applied %d, unacked %d",
				replyTimeout, appended, applied, lag)
		}
		time.Sleep(time.Millisecond)
	}
}

func (rc *runCtx) procs() []*proc {
	ps := []*proc{rc.primary}
	if rc.follower != nil {
		ps = append(ps, rc.follower)
	}
	return ps
}

// sample is one reading of the counters, every 250 ms of a measured
// phase.
type sample struct {
	t         time.Time
	keys, ops int64
	cpu       []float64 // per shed process, seconds
	rss       float64   // resident set of all shed processes, MiB
}

// phaseStats is what a measured phase yields besides latencies.
type phaseStats struct {
	samples []sample
	selfCPU float64    // the generator's own CPU seconds
	peakRSS float64    // VmHWM summed over the shed processes when the phase ended, MiB
	before  []promSnap // per shed process, telemetry runs only
	after   []promSnap
	traces  []string // TRACE GET at the end, telemetry runs only
	lagRecs float64  // maxima of the primary's view of its follower
	lagByte float64
	ackAge  []float64

	ack, query dist // write and read latencies of the phase, filled by its driver
}

// sampler reads the counters on a 250 ms tick while a phase runs.
type sampler struct {
	rc    *runCtx
	count func() (keys, ops int64)
	st    *phaseStats
	self0 float64
	stop  chan struct{}
	done  chan struct{}
	err   error
}

func (rc *runCtx) startSampler(count func() (keys, ops int64)) (*sampler, error) {
	s := &sampler{rc: rc, count: count, st: &phaseStats{}, stop: make(chan struct{}), done: make(chan struct{})}
	if rc.telemetry {
		var err error
		if s.st.before, err = rc.scrapeAll(); err != nil {
			return nil, err
		}
		if _, err := rc.ctl.do("TRACE RESET"); err != nil {
			return nil, err
		}
	}
	s.self0 = selfCPUSeconds()
	if err := s.take(); err != nil {
		return nil, err
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if s.err = s.take(); s.err != nil {
					return
				}
				if rc.telemetry && rc.follower != nil {
					s.sampleLag()
				}
			}
		}
	}()
	return s, nil
}

// scrapeAll scrapes /metrics of every shed process, primary first.
func (rc *runCtx) scrapeAll() ([]promSnap, error) {
	var snaps []promSnap
	for _, p := range rc.procs() {
		snap, err := scrape(p.debug)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, snap)
	}
	return snaps, nil
}

func (s *sampler) take() error {
	sm := sample{t: time.Now()}
	sm.keys, sm.ops = s.count()
	for _, p := range s.rc.procs() {
		c, err := p.cpuSeconds()
		if err != nil {
			return err
		}
		sm.cpu = append(sm.cpu, c)
		rss, err := p.statusMiB("VmRSS")
		if err != nil {
			return err
		}
		sm.rss += rss
	}
	s.st.samples = append(s.st.samples, sm)
	return nil
}

// sampleLag reads how far the primary sees its follower behind.
func (s *sampler) sampleLag() {
	snap, err := scrape(s.rc.primary.debug)
	if err != nil {
		return // a missed lag sample is not worth failing the phase for
	}
	s.st.lagRecs = max(s.st.lagRecs, snap.sumPrefix("she_repl_lag_records"))
	s.st.lagByte = max(s.st.lagByte, snap.sumPrefix("she_repl_lag_bytes"))
	s.st.ackAge = append(s.st.ackAge, snap.sumPrefix("she_repl_ack_age_seconds")*1e3)
}

// finish takes the closing sample and, in a telemetry run, the closing
// scrapes, while the load is still on.
func (s *sampler) finish() (*phaseStats, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return nil, s.err
	}
	if err := s.take(); err != nil {
		return nil, err
	}
	s.st.selfCPU = selfCPUSeconds() - s.self0
	for _, p := range s.rc.procs() {
		hwm, err := p.statusMiB("VmHWM")
		if err != nil {
			return nil, err
		}
		s.st.peakRSS += hwm
	}
	if s.rc.telemetry {
		var err error
		if s.st.after, err = s.rc.scrapeAll(); err != nil {
			return nil, err
		}
		// The PING is there for shed's sake. shed arms its write deadline
		// (-write-timeout, 10 s) only when it flushes a reply itself; a
		// reply over its 32 KiB buffer, as TRACE GET's is, spills to the
		// socket under whatever deadline the connection's previous
		// flush left, and on a connection idle for the whole phase that
		// one has passed: shed drops the connection mid-reply. A small
		// reply first leaves a fresh deadline. (A finding, see README.)
		if _, err := s.rc.ctl.do("PING"); err != nil {
			return nil, err
		}
		if s.st.traces, err = s.rc.ctl.do("TRACE GET"); err != nil {
			return nil, err
		}
	}
	return s.st, nil
}

// The phases of a closed-loop run, read by each connection between
// flushes.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// loadConn is one closed-loop connection: it sends its flushes in
// turn, cyclically, each only after the one before is fully answered.
type loadConn struct {
	cl      *client
	sc      *script
	flushes [][2]int // command ranges of sc
	keysOf  []int64  // keys each flush carries

	keys, ops atomic.Int64 // answered so far; read by the sampler
	done      int          // flushes fully answered
	attempted int64
	fails     failures
	err       error

	ack, query, flush dist // measured phase only
}

func newLoadConn(addr string, sc *script, flushes [][2]int) (*loadConn, error) {
	cl, err := dial(addr)
	if err != nil {
		return nil, err
	}
	lc := &loadConn{cl: cl, sc: sc, flushes: flushes, keysOf: make([]int64, len(flushes))}
	for i, f := range flushes {
		for _, rq := range sc.reqs[f[0]:f[1]] {
			lc.keysOf[i] += int64(rq.nkeys)
		}
	}
	return lc, nil
}

func (lc *loadConn) run(phase *atomic.Int32) {
	measuring := false
	for {
		switch phase.Load() {
		case phaseStop:
			return
		case phaseMeasure:
			if !measuring {
				measuring = true
				lc.ack.reset()
				lc.query.reset()
				lc.flush.reset()
			}
		}
		i := lc.done % len(lc.flushes)
		f := lc.flushes[i]
		t0 := time.Now()
		err := lc.cl.exchange(lc.sc, f[0], f[1], &lc.fails, func(stamp time.Time, writes, reads int) {
			if measuring {
				lc.ack.add(int64(stamp.Sub(t0)), writes)
				lc.query.add(int64(stamp.Sub(t0)), reads)
			}
		})
		lc.attempted += int64(f[1] - f[0])
		if err != nil {
			lc.err = err
			return
		}
		if measuring {
			lc.flush.add(int64(lc.cl.stamp.Sub(t0)), 1)
		}
		lc.done++
		lc.keys.Add(lc.keysOf[i])
		lc.ops.Add(int64(f[1] - f[0]))
	}
}

// closedLoop drives conns through warm-up and the measured phase and
// returns the phase's samples, with the write and read latencies in
// st.ack and st.query. lastReply is when the last connection read its
// last reply.
func (rc *runCtx) closedLoop(conns []*loadConn) (st *phaseStats, lastReply time.Time, err error) {
	var phase atomic.Int32
	var wg sync.WaitGroup
	for _, lc := range conns {
		wg.Add(1)
		go func(lc *loadConn) {
			defer wg.Done()
			lc.run(&phase)
		}(lc)
	}
	stopAndWait := func() {
		phase.Store(phaseStop)
		wg.Wait()
	}
	time.Sleep(rc.opt.warmup)
	count := func() (keys, ops int64) {
		for _, lc := range conns {
			keys += lc.keys.Load()
			ops += lc.ops.Load()
		}
		return keys, ops
	}
	sm, err := rc.startSampler(count)
	if err != nil {
		stopAndWait()
		return nil, time.Time{}, err
	}
	phase.Store(phaseMeasure)
	time.Sleep(rc.opt.seconds)
	st, err = sm.finish()
	stopAndWait()
	if err != nil {
		return nil, time.Time{}, err
	}
	var flush dist
	for _, lc := range conns {
		if lc.err != nil {
			return nil, time.Time{}, fmt.Errorf("connection failed: %w (%s)", lc.err, lc.fails.first)
		}
		rc.res.Attempted += lc.attempted
		rc.res.fail(lc.fails)
		st.ack.merge(&lc.ack)
		st.query.merge(&lc.query)
		flush.merge(&lc.flush)
		if lc.cl.stamp.After(lastReply) {
			lastReply = lc.cl.stamp
		}
	}
	rc.res.Timings["client.flush"] = flush.timing()
	rc.res.M["client.flush_p50_ms"] = float64(flush.quantile(0.5)) / 1e6
	rc.res.M["client.flush_p99_ms"] = float64(flush.quantile(0.99)) / 1e6
	return st, lastReply, nil
}

// summarize turns a measured phase into the rate, cost, latency and
// memory metrics. Nothing measured is left out: rates and CPU per
// operation are totals over the whole phase, latency percentiles are
// over every reply of it. perKey says whether cpu_us_per_op is per key
// (the ingest workloads) or per command. stretch > 1 lengthens the
// phase by time spent after it that the rate must pay for (the
// follower's catch-up).
func (rc *runCtx) summarize(st *phaseStats, perKey bool, stretch float64) {
	m := rc.res.M
	first, last := st.samples[0], st.samples[len(st.samples)-1]
	secs := last.t.Sub(first.t).Seconds() * stretch
	keys, ops := float64(last.keys-first.keys), float64(last.ops-first.ops)
	m["keys_per_s"] = keys / secs
	m["ops_per_s"] = ops / secs

	units := ops
	if perKey {
		units = keys
	}
	var cpu float64
	for p := range last.cpu {
		cpu += last.cpu[p] - first.cpu[p]
	}
	if units > 0 {
		m["cpu_us_per_op"] = cpu * 1e6 / units
		if rc.follower != nil {
			primary := last.cpu[0] - first.cpu[0]
			m["repl.primary_cpu_us_per_key"] = primary * 1e6 / units
			m["repl.follower_cpu_us_per_key"] = (cpu - primary) * 1e6 / units
		}
	}
	if cpu+st.selfCPU > 0 {
		m["client.cpu_share"] = st.selfCPU / (cpu + st.selfCPU)
	}

	for _, l := range []struct {
		name string
		d    *dist
	}{{"ack", &st.ack}, {"query", &st.query}} {
		if l.d.n == 0 {
			continue
		}
		rc.res.Timings[l.name] = l.d.timing()
		m["client."+l.name+"_p50_ms"] = float64(l.d.quantile(0.5)) / 1e6
		m["client."+l.name+"_p99_ms"] = float64(l.d.quantile(0.99)) / 1e6
		if l.d.n >= 10000 {
			m["client."+l.name+"_p999_ms"] = float64(l.d.quantile(0.999)) / 1e6
		}
	}
	m["client.samples"] = float64(st.ack.n + st.query.n)
	// The servers' resident set is a floor with spikes and steps on it: a
	// GC cycle that meets a checkpoint's snapshot buffers doubles the heap
	// target for a few seconds, and on paced_wal the one checkpoint of the
	// phase lifts it by a third until the scavenger hands the memory
	// back. The gated figure is the floor, the 10th percentile of the
	// samples, which a table or cache added to shed moves just the same.
	// (The median flips between paced_wal's two levels with the instant
	// the checkpoint falls; the minimum is a single sample.) The
	// high-water mark is the tallest spike and is reported ungated.
	m["server.peak_rss_mb"] = st.peakRSS
	rss := make([]float64, len(st.samples))
	for i := range rss {
		rss[i] = st.samples[i].rss
	}
	sort.Float64s(rss)
	m["rss_mb"] = rss[len(rss)/10]
}

// checkPresent asks cl's server for every key of sample on sketch b
// and counts a key it denies as a failure: the keys were acknowledged
// within the last window.
func (rc *runCtx) checkPresent(cl *client, where string, sample []uint64) ([]int64, error) {
	ans, err := cl.queryAll("b", sample, 64)
	if err != nil {
		return nil, err
	}
	var fails failures
	for i, a := range ans {
		if a != 1 {
			fails.add("%s: SKETCH.QUERY b %d answered :%d for a key acknowledged within the last window", where, sample[i], a)
		}
	}
	rc.res.Attempted += int64(len(sample))
	rc.res.fail(fails)
	rc.res.Checks = append(rc.res.Checks, fmt.Sprintf("%s: %d recently acknowledged keys queried on b, %d denied", where, len(sample), fails.n))
	return ans, nil
}

// epilogue ends every workload with the accuracy pass: the inserts and
// all probes but the last on the primary, the last on probeOn(), which
// may restart the primary or wait for the follower first, so that the
// figures also prove that recovery and replication keep the sketches'
// answers.
func (rc *runCtx) epilogue(probeOn func() (*client, string, error)) error {
	st, err := accuracyInsert(rc.ctl, genAccuracy(rc.opt.seed))
	if err != nil {
		return err
	}
	cl, where, err := probeOn()
	if err != nil {
		return err
	}
	if err := accuracyProbe(cl, st); err != nil {
		return err
	}
	rc.res.Attempted += int64(st.absentAsked + st.cmAsked + st.hllProbes)
	rc.res.M["bf_fpr"], rc.res.M["cm_are"], rc.res.M["hll_rel_err"] = st.figures()
	rc.res.Checks = append(rc.res.Checks, fmt.Sprintf("accuracy, last probe on %s: %d absent keys and %d in-window keys probed, %d hll estimates",
		where, st.absentAsked, st.cmAsked, st.hllProbes))
	return nil
}

func (rc *runCtx) onPrimary() (*client, string, error) { return rc.ctl, "primary", nil }

// runIngest is ingest_mem, ingest_wal and ingest_repl.
func runIngest(rc *runCtx) error {
	in := genIngest(rc.opt.seed)
	if err := rc.setup(nil); err != nil {
		return err
	}
	var conns []*loadConn
	for c := 0; c < 2; c++ {
		var flushes [][2]int
		for f := c; f < ingestLines/ingestFlush; f += 2 {
			flushes = append(flushes, [2]int{f * ingestFlush, (f + 1) * ingestFlush})
		}
		lc, err := newLoadConn(rc.primary.addr, &in.sc, flushes)
		if err != nil {
			return err
		}
		defer lc.cl.close()
		conns = append(conns, lc)
	}
	st, lastReply, err := rc.closedLoop(conns)
	if err != nil {
		return err
	}
	stretch := 1.0
	if rc.follower != nil {
		// The clock of ingest_repl stops when the follower has
		// acknowledged everything the clients were told is done.
		if err := rc.waitCaughtUp(); err != nil {
			return err
		}
		catchup := time.Since(lastReply).Seconds()
		rc.res.M["repl.catchup_s"] = catchup
		stretch = (rc.opt.seconds.Seconds() + catchup) / rc.opt.seconds.Seconds()
	}
	rc.summarize(st, true, stretch)
	rc.scraped(st)

	// A sample of the last window: the b lines of the flushes each
	// connection had answered last, newest first.
	var sample []uint64
	for back := 1; len(sample) < 4096; back++ {
		found := false
		for _, lc := range conns {
			if lc.done < back {
				continue
			}
			found = true
			f := lc.flushes[(lc.done-back)%len(lc.flushes)]
			for line := f[1] - 1; line >= f[0]; line-- {
				if line%3 == 0 {
					sample = append(sample, in.lineKeys(line)...)
				}
			}
		}
		if !found {
			return fmt.Errorf("too few flushes answered to sample a window")
		}
	}
	sample = sample[:4096]
	want, err := rc.checkPresent(rc.ctl, "primary", sample)
	if err != nil {
		return err
	}

	probeOn := rc.onPrimary
	switch {
	case rc.follower != nil:
		probeOn = func() (*client, string, error) {
			if err := rc.waitCaughtUp(); err != nil {
				return nil, "", err
			}
			got, err := rc.checkPresent(rc.fctl, "follower", sample)
			if err != nil {
				return nil, "", err
			}
			var fails failures
			for i := range got {
				if got[i] != want[i] {
					fails.add("follower answers :%d for key %d, primary :%d", got[i], sample[i], want[i])
				}
			}
			rc.res.fail(fails)
			return rc.fctl, "follower after catch-up", nil
		}
	case rc.spec.wal:
		probeOn = func() (*client, string, error) {
			if err := rc.crashAndRecover(); err != nil {
				return nil, "", err
			}
			if _, err := rc.checkPresent(rc.ctl, "primary after kill -9 and recovery", sample); err != nil {
				return nil, "", err
			}
			return rc.ctl, "primary after kill -9 and recovery", nil
		}
	}
	return rc.epilogue(probeOn)
}

// crashAndRecover kills the primary with SIGKILL, restarts it on the
// same WAL directory and waits for its first PING reply.
func (rc *runCtx) crashAndRecover() error {
	rc.ctl.close()
	rc.primary.kill()
	t0 := time.Now()
	var err error
	if rc.primary, err = startShed(rc.opt.bin, rc.opt.nproc, rc.telemetry, rc.primaryArgs...); err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	if rc.ctl, err = dial(rc.primary.addr); err != nil {
		return err
	}
	if _, err := rc.ctl.do("PING"); err != nil {
		return err
	}
	recovery := time.Since(t0).Seconds()
	info, err := rc.ctl.do("INFO")
	if err != nil {
		return err
	}
	replayed, err := fieldInt(info, "wal_replayed_records")
	if err != nil {
		return err
	}
	rc.res.M["wal.recovery_s"] = recovery
	rc.res.M["wal.replayed_recs_per_s"] = float64(replayed) / recovery
	rc.res.Checks = append(rc.res.Checks, fmt.Sprintf("kill -9, restart: first PING reply after %.3f s, %d records replayed", recovery, replayed))
	return nil
}

// runQuery is query_mix.
func runQuery(rc *runCtx) error {
	in := genQuery(rc.opt.seed)
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
	var conns []*loadConn
	for c := range in.conns {
		flushes := make([][2]int, queryFlushes)
		for f := range flushes {
			flushes[f] = [2]int{f * queryFlush, (f + 1) * queryFlush}
		}
		lc, err := newLoadConn(rc.primary.addr, &in.conns[c], flushes)
		if err != nil {
			return err
		}
		defer lc.cl.close()
		conns = append(conns, lc)
	}
	st, _, err := rc.closedLoop(conns)
	if err != nil {
		return err
	}
	rc.summarize(st, false, 1)
	rc.scraped(st)
	rc.res.Checks = append(rc.res.Checks, "every reply parsed; every bloom query of a key its own connection keeps re-inserting had to answer 1")
	return rc.epilogue(rc.onPrimary)
}
