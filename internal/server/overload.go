package server

import (
	"sync/atomic"
	"time"

	"she/internal/audit"
)

// Overload protection: a tracked memory budget and an explicit
// degradation ladder instead of death-by-OOM.
//
// With Config.MaxMemory set, an evaluator goroutine periodically sums
// the server's accounted footprint — sketch arrays, audit shadows,
// per-connection buffers, per-replica stream buffers, fixed WAL
// overhead — and maps the usage fraction onto a ladder of degradation
// levels. Each rung sheds the cheapest remaining load:
//
//	≥ 80%  shed_audit    audit shadows shrink to a fraction of their
//	                     configured capacity (accuracy auditing keeps
//	                     running at reduced coverage)
//	≥ 90%  shed_slowlog  slow-query recording stops (the ring holds
//	                     rendered command text of unbounded variety)
//	≥ 95%  refuse_create SKETCH.CREATE and SKETCH.LOAD are refused —
//	                     no new sketch allocations
//	≥ 100% refuse_insert SKETCH.INSERT answers -ERR OOM; queries,
//	                     reads and replication keep working
//
// Stepping DOWN uses the usage as if audit shadows were restored
// (Auditor.FullMemoryBytes) plus a hysteresis margin, so the memory a
// rung itself freed cannot argue for leaving the rung — without this
// the ladder oscillates: shed frees memory, usage drops below the
// threshold, restore re-allocates, usage crosses it again.
//
// Every transition increments overload_transitions and is visible as
// the she_overload_* metric families and the INFO overload_* lines.
// With MaxMemory unset the insert path pays one atomic load.

// overLevel is a rung of the degradation ladder.
type overLevel int32

const (
	overNone overLevel = iota
	overShedAudit
	overShedSlowlog
	overRefuseCreate
	overRefuseInsert
)

// overFracs are the usage fractions at which each rung engages,
// indexed by overLevel.
var overFracs = [...]float64{0, 0.80, 0.90, 0.95, 1.00}

// overHysteresis is the extra usage fraction that must clear before a
// rung disengages, on top of re-judging with restored-audit usage.
const overHysteresis = 0.03

func (l overLevel) String() string {
	switch l {
	case overNone:
		return "none"
	case overShedAudit:
		return "shed_audit"
	case overShedSlowlog:
		return "shed_slowlog"
	case overRefuseCreate:
		return "refuse_create"
	default:
		return "refuse_insert"
	}
}

// auditShedFrac is the shadow-capacity fraction audits shrink to at
// the shed_audit rung.
const auditShedFrac = 0.25

// Accounting estimates for state not directly measurable. Estimates
// err high on purpose: the budget is a protection boundary, not a
// precise allocator.
const (
	// connMemoryBytes is one client connection's buffers: the 64 KiB
	// bufio reader (MaxLineBytes) plus the 32 KiB reply writer.
	connMemoryBytes = MaxLineBytes + 32<<10
	// replicaMemoryBytes is one attached replica's streaming state: a
	// ReadFrom batch (replReadBudget) plus its channel buffers.
	replicaMemoryBytes = replReadBudget + 64<<10
	// walMemoryBytes is the WAL's fixed in-process overhead (encode
	// scratch, manifest state); segments live on disk, not in memory.
	walMemoryBytes = 1 << 20
	// overloadEvalInterval paces the background evaluator. Creates,
	// drops and loads re-evaluate immediately; the ticker catches
	// connection-count and audit-shadow drift.
	overloadEvalInterval = 250 * time.Millisecond
)

// overloadState is the atomic half of the subsystem, embedded in
// Server. level is read on every gated command; the rest feed INFO
// and /metrics.
type overloadState struct {
	level     atomic.Int32
	usedBytes atomic.Int64 // last accounted usage
	fullBytes atomic.Int64 // usage as if audit shadows were restored
	slowShed  atomic.Bool  // slowlog recording suspended
}

// overloadLevel returns the current rung (one atomic load — the whole
// insert-path cost of overload protection).
func (s *Server) overloadLevel() overLevel {
	return overLevel(s.over.level.Load())
}

// startOverload starts the evaluator. No-op without a memory budget.
func (s *Server) startOverload() {
	if s.cfg.MaxMemory <= 0 {
		return
	}
	s.evalOverload()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(overloadEvalInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.evalOverload()
			case <-s.done:
				return
			}
		}
	}()
}

// accountMemory sums the tracked footprint. cur is what the process
// holds now; full is what it would hold with audit shadows at their
// configured capacity — the number downward transitions judge by. A
// hot-key track counts with its sketch: the budget is what bounds them.
func (s *Server) accountMemory() (cur, full int64) {
	var sketch, aud, audFull int64
	for _, in := range s.reg.List() {
		sketch += int64(in.Sketch.ResidentBytes()) + in.Sketch.hot.Load().MemoryBytes()
		if a := in.Sketch.Audit(); a != nil {
			aud += a.MemoryBytes()
			audFull += a.FullMemoryBytes()
		}
	}
	base := sketch + s.ctr.ConnsActive.Value()*connMemoryBytes +
		int64(s.tracker.Count())*replicaMemoryBytes
	if s.wal != nil {
		base += walMemoryBytes
	}
	return base + aud, base + audFull
}

// levelForUsage maps a usage against the budget onto the highest
// engaged rung.
func levelForUsage(usage, limit int64) overLevel {
	lvl := overNone
	for l := overShedAudit; l <= overRefuseInsert; l++ {
		if float64(usage) >= overFracs[l]*float64(limit) {
			lvl = l
		}
	}
	return lvl
}

// evalOverload re-measures usage and walks the ladder. Upward moves
// judge by current usage; downward moves judge by restored-audit usage
// plus hysteresis (see the package comment above for why).
func (s *Server) evalOverload() {
	limit := s.cfg.MaxMemory
	if limit <= 0 {
		return
	}
	cur, full := s.accountMemory()
	s.over.usedBytes.Store(cur)
	s.over.fullBytes.Store(full)

	old := s.overloadLevel()
	next := old
	if up := levelForUsage(cur, limit); up > old {
		next = up
	} else {
		down := levelForUsage(full+int64(overHysteresis*float64(limit)), limit)
		if down < old {
			next = down
		}
	}
	if next != old {
		s.over.level.Store(int32(next))
		s.ctr.OverTransitions.Inc()
		s.over.slowShed.Store(next >= overShedSlowlog)
		if next < overShedAudit && old >= overShedAudit {
			s.forEachAuditor(func(a *audit.Auditor) { a.Restore() })
		}
		lvlLog := s.logger.Warn
		if next < old {
			lvlLog = s.logger.Info
		}
		kv := []any{
			"from", old.String(), "to", next.String(),
			"used_bytes", cur, "limit_bytes", limit,
		}
		// Climbing the ladder names a suspect: with traffic sampling on,
		// the heaviest sampled key across every sketch rides the warning,
		// so the operator's first question — what is hitting us — is
		// answered by the same log line that reports the degradation.
		if next > old {
			var hot hotRow
			for _, h := range s.hotRows(1, s.sample.Traffic.Every()) {
				if len(h.top) > 0 && (hot.top == nil || h.top[0].Count > hot.top[0].Count) {
					hot = h
				}
			}
			if hot.top != nil {
				kv = append(kv, "hot_sketch", hot.name,
					"hot_key", hot.top[0].Key, "hot_key_est_count", hot.top[0].Count)
			}
		}
		lvlLog("overload level change", kv...)
	}
	// Shed on every tick at or above the rung, not just on the
	// transition: sketches created while shed must shrink too.
	if next >= overShedAudit {
		s.forEachAuditor(func(a *audit.Auditor) { a.Shed(auditShedFrac) })
	}
}

func (s *Server) forEachAuditor(fn func(*audit.Auditor)) {
	for _, in := range s.reg.List() {
		if a := in.Sketch.Audit(); a != nil {
			fn(a)
		}
	}
}

// admission is a counting semaphore with an atomic fast path: on an
// unsaturated server acquire is one load+CAS and release one add plus
// a waiter check — no channel operations, which keeps admission
// control inside the insert path's < 5% overhead budget. Only when
// the server is actually at MaxInflight do commands fall back to
// parking on the wake channel.
type admission struct {
	max     int64
	n       atomic.Int64 // commands executing now
	waiters atomic.Int64 // goroutines parked (or about to park) in await
	// wake carries one best-effort token per freed slot while waiters
	// exist; cap max so a burst of releases cannot drop a token that a
	// parked waiter still needs.
	wake chan struct{}
}

func newAdmission(max int) *admission {
	return &admission{max: int64(max), wake: make(chan struct{}, max)}
}

// tryAcquire claims a slot if one is free.
func (ad *admission) tryAcquire() bool {
	for {
		cur := ad.n.Load()
		if cur >= ad.max {
			return false
		}
		if ad.n.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// release frees a slot. The slot is freed BEFORE the waiter check: a
// waiter that registers after the check then rechecks tryAcquire
// before parking, so it observes the freed slot; a waiter that
// registered before the check gets a wake token. Either way no waiter
// sleeps on a free slot.
func (ad *admission) release() {
	ad.n.Add(-1)
	if ad.waiters.Load() > 0 {
		select {
		case ad.wake <- struct{}{}:
		default:
		}
	}
}

// await parks until a slot frees, the timeout fires, or the server
// shuts down. Spurious wake tokens (left over from earlier waiter
// windows) just cause a recheck.
func (ad *admission) await(timeout time.Duration, done <-chan struct{}) (ok, quit bool) {
	ad.waiters.Add(1)
	defer ad.waiters.Add(-1)
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		if ad.tryAcquire() {
			return true, false
		}
		select {
		case <-ad.wake:
		case <-t.C:
			return false, false
		case <-done:
			return false, true
		}
	}
}
