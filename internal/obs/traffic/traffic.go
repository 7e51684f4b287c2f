// Package traffic is shed's self-telemetry subsystem: the server
// observes its own traffic with the same sketch machinery it serves.
// The commands the server's obs.Sampler picks at its traffic rate feed
// two consumers here, and a third sees every connection:
//
//   - per-sketch sliding-window hot-key tracking (she.TopK over the
//     sampled insert keys), served by the HOTKEYS verb and the
//     she_hotkeys_* metric families;
//   - a MONITOR broadcast hub: bounded per-subscriber rings of sampled
//     command frames, dropped (and counted) when a consumer lags;
//   - a per-connection accounting registry (bytes, commands by verb,
//     batch sizes, names), served by CLIENT LIST/KILL/GETNAME/SETNAME
//     and the INFO clients section, and the server's one list of live
//     connections.
//
// Only sampled commands take locks (the hot-key tracker's per-sketch
// mutex, the hub's subscriber list). Connection accounting is always
// on but amortized: bytes are counted per syscall, fast-path command
// counts settle per batch.
//
// Sampling error model: 1-in-N sampling widens the TopK guarantee.
// SHE-CM never undercounts an in-window key, so over the sampled
// stream the no-undercount property holds exactly; scaling back by N
// adds binomial sampling noise with standard deviation sqrt(f·N)
// around a key's true count f. A key needs f >> N sampled-window
// occurrences (i.e. several dozen samples) before its rank is stable;
// HOTKEYS therefore reports estimated raw counts (sampled estimate
// times N) and callers should treat keys with few samples as noise.
package traffic

// Config sizes a Tracker.
type Config struct {
	// MonitorRing bounds each MONITOR subscriber's frame buffer
	// (default 1024); frames past it are dropped and counted.
	MonitorRing int
	// Verbs is the command-verb table accounting indexes by; entry
	// len(Verbs)-1 is the catchall.
	Verbs []string
}

const (
	// hotKeysK is the hot keys HOTKEYS and she_hotkeys_est_count report
	// per sketch; the tracker keeps 4·K candidates, the she.TopK bound.
	hotKeysK = 10
	// hotWindow is the hot-key sliding window in sampled inserts; one
	// raw-traffic window is the sampling rate times that.
	hotWindow = 65536
	// defaultMonitorRing is Config.MonitorRing's zero value.
	defaultMonitorRing = 1024
)

// Tracker owns the consumers of sampled traffic and the connection
// registry. One per server; always non-nil there, like xtrace.Tracer.
type Tracker struct {
	hot     hotRegistry
	hub     Hub
	clients Clients
}

// New returns a Tracker with cfg's zero values defaulted.
func New(cfg Config) *Tracker {
	ring := cfg.MonitorRing
	if ring <= 0 {
		ring = defaultMonitorRing
	}
	t := &Tracker{}
	t.hub.ring = ring
	t.clients.verbs = cfg.Verbs
	return t
}

// NoteKeys records a sampled insert's keys against the named sketch's
// hot-key tracker.
func (t *Tracker) NoteKeys(sketch []byte, keys []uint64) {
	if t == nil {
		return
	}
	t.hot.note(sketch, keys)
}

// HotKeys reports the named sketch's top-k sampled keys, heaviest
// first, with counts scaled back to estimated raw traffic (sampled
// estimate × rate, the 1-in-N traffic rate). k <= 0 means hotKeysK;
// ok is false when the sketch has no tracked traffic.
func (t *Tracker) HotKeys(sketch string, k, rate int) (entries []HotEntry, ok bool) {
	if t == nil {
		return nil, false
	}
	return t.hot.top(sketch, k, rate)
}

// HotSketches lists every tracked sketch name, sorted.
func (t *Tracker) HotSketches() []string {
	if t == nil {
		return nil
	}
	return t.hot.names()
}

// HotStats snapshots every tracked sketch's top-k for /metrics, counts
// scaled by rate as HotKeys scales them.
func (t *Tracker) HotStats(rate int) []HotStat {
	if t == nil {
		return nil
	}
	return t.hot.stats(rate)
}

// Hottest returns the single heaviest sampled key across every
// tracked sketch, count scaled by rate — the overload ladder's blame
// line. ok is false when nothing is tracked.
func (t *Tracker) Hottest(rate int) (sketch string, e HotEntry, ok bool) {
	if t == nil {
		return "", HotEntry{}, false
	}
	return t.hot.hottest(rate)
}

// Monitor exposes the MONITOR hub.
func (t *Tracker) Monitor() *Hub {
	if t == nil {
		return nil
	}
	return &t.hub
}

// Publish broadcasts one sampled command frame to MONITOR
// subscribers. Nil-safe; free when nobody subscribes (one atomic
// load). Call only on the sampled path — rendering line costs.
func (t *Tracker) Publish(addr, verb, line string) {
	if t == nil {
		return
	}
	t.hub.publish(addr, verb, line)
}

// Wants reports whether a Publish would reach anyone, so call sites
// can skip rendering the frame when no MONITOR is attached.
func (t *Tracker) Wants() bool {
	return t != nil && t.hub.subs.Load() > 0
}

// Clients exposes the per-connection accounting registry.
func (t *Tracker) Clients() *Clients {
	if t == nil {
		return nil
	}
	return &t.clients
}
