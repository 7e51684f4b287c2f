package server

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"she"
	"she/internal/audit"
)

// Default SKETCH.CREATE parameters.
const (
	DefaultBits      = 1 << 20
	DefaultCounters  = 1 << 16
	DefaultRegisters = 4096
	DefaultWindow    = 1 << 16
	DefaultShards    = 8
	DefaultSeed      = 1
)

// Upper bounds on client-supplied SKETCH.CREATE parameters. Sizes are
// totals across shards; the caps keep a single CREATE from allocating
// unbounded memory on behalf of an unauthenticated client, and keep
// every size well inside int range so nothing wraps negative on
// conversion.
const (
	MaxBits      = 1 << 30 // 128 MiB of filter bits
	MaxCounters  = 1 << 26
	MaxRegisters = 1 << 24
	MaxWindow    = 1 << 32
	MaxShards    = 1 << 12
	MaxHashes    = 64
)

// Sketch is one named sketch hosted by the server: a sharded
// sliding-window structure plus its insert counter. All methods are
// safe for concurrent use — writes go through the sharded wrappers, so
// different keys proceed in parallel on different cores.
type Sketch struct {
	kind    string
	bloom   *she.ShardedBloomFilter
	cm      *she.ShardedCountMin
	hll     *she.ShardedHyperLogLog
	inserts atomic.Uint64
	// aud, when non-nil, audits this sketch's answers against a
	// hash-sampled exact shadow (see internal/audit). Attached before
	// the sketch is published to the registry map, so the insert path
	// reads it without atomics: one nil check when auditing is off.
	aud *audit.Auditor
}

// Kind returns "bloom", "cm" or "hll".
func (sk *Sketch) Kind() string { return sk.kind }

// Inserts returns how many keys this sketch has absorbed since it was
// created or loaded.
func (sk *Sketch) Inserts() uint64 { return sk.inserts.Load() }

// structure returns the sharded structure behind the sketch, for what
// every kind answers alike.
func (sk *Sketch) structure() interface {
	Shards() int
	MemoryBits() int
	ResidentBytes() int
	Stats() she.SketchStats
	MarshalBinary() ([]byte, error)
} {
	switch sk.kind {
	case "bloom":
		return sk.bloom
	case "cm":
		return sk.cm
	default:
		return sk.hll
	}
}

// Shards returns the shard count.
func (sk *Sketch) Shards() int { return sk.structure().Shards() }

// MemoryBits returns the structure's payload as the paper counts it:
// cells plus one mark bit per group.
func (sk *Sketch) MemoryBits() int { return sk.structure().MemoryBits() }

// ResidentBytes returns what the structure holds allocated — cell words
// plus the group clocks' word a group — the figure -max-memory budgets.
func (sk *Sketch) ResidentBytes() int { return sk.structure().ResidentBytes() }

// Stats snapshots the structure's SHE window state — fill, cleaning
// cycle position, young/perfect/aged cell counts — aggregated across
// shards. Read-only: it never triggers cleaning, so the numbers are
// approximate between cleanings (see she.SketchStats).
func (sk *Sketch) Stats() she.SketchStats { return sk.structure().Stats() }

// Insert records key as the next item of the sketch's stream; see
// InsertBatch, which is what the server itself calls.
func (sk *Sketch) Insert(key uint64) {
	n := sk.inserts.Add(1)
	switch sk.kind {
	case "bloom":
		sk.bloom.Insert(key)
	case "cm":
		sk.cm.Insert(key)
	default:
		sk.hll.Insert(key)
	}
	if a := sk.aud; a != nil {
		a.Observe(key, n)
	}
}

// InsertBatch records keys, in slice order, as the next items of the
// sketch's stream — the one insert call connection batches, the slow
// path, WAL replay and follower apply all make. The insert counter
// moves once and each shard is locked once; sc is the caller's reusable
// partition scratch (nil allocates one if the batch needs it).
//
// With an auditor attached, every key in the audited sample is compared
// against the sampled exact shadow by a sketch that has absorbed the
// keys up to and including it and none after: the pending run is
// flushed before each Observe. Without one, the audit hook is a nil
// check.
func (sk *Sketch) InsertBatch(keys []uint64, sc *she.BatchScratch) {
	n := sk.inserts.Add(uint64(len(keys))) - uint64(len(keys))
	a := sk.aud
	if a == nil {
		sk.absorb(keys, sc)
		return
	}
	pending := 0
	for i, key := range keys {
		if a.Sampled(key) {
			sk.absorb(keys[pending:i+1], sc)
			pending = i + 1
			a.Observe(key, n+uint64(i)+1)
		}
	}
	sk.absorb(keys[pending:], sc)
}

// absorb hands keys to the sharded structure.
func (sk *Sketch) absorb(keys []uint64, sc *she.BatchScratch) {
	switch sk.kind {
	case "bloom":
		sk.bloom.InsertBatch(keys, sc)
	case "cm":
		sk.cm.InsertBatch(keys, sc)
	default:
		sk.hll.InsertBatch(keys, sc)
	}
}

// Audit returns the attached accuracy auditor, nil when auditing is
// off.
func (sk *Sketch) Audit() *audit.Auditor { return sk.aud }

// attachAudit builds and attaches an auditor sized from the sketch's
// aggregate stats. Must run before the sketch is published to the
// registry (Insert reads sk.aud without synchronization).
func (sk *Sketch) attachAudit(cfg audit.Config) {
	st := sk.Stats()
	probes := audit.Probes{}
	var kind audit.Kind
	switch sk.kind {
	case "cm":
		kind = audit.Frequency
		probes.Frequency = sk.cm.Frequency
	case "bloom":
		kind = audit.Membership
		probes.Contains = sk.bloom.Query
	default:
		kind = audit.Cardinality
		probes.Cardinality = sk.hll.Cardinality
	}
	sk.aud = audit.New(kind, cfg, st.Window, st.Tcycle, st.Shards, probes)
}

// Query answers the per-key question the sketch supports: membership
// (0/1) for bloom, windowed frequency for cm.
func (sk *Sketch) Query(key uint64) (int64, error) {
	switch sk.kind {
	case "bloom":
		if sk.bloom.Query(key) {
			return 1, nil
		}
		return 0, nil
	case "cm":
		return int64(sk.cm.Frequency(key)), nil
	default:
		return 0, fmt.Errorf("hll answers SKETCH.CARD, not SKETCH.QUERY")
	}
}

// Cardinality answers the windowed distinct-count estimate (hll only).
func (sk *Sketch) Cardinality() (float64, error) {
	if sk.kind != "hll" {
		return 0, fmt.Errorf("%s does not estimate cardinality; use hll", sk.kind)
	}
	return sk.hll.Cardinality(), nil
}

// Server snapshot envelope: the library's sharded snapshot prefixed
// with the server-level insert counter, so SKETCH.LIST and /debug/vars
// keep counting across SKETCH.SAVE/LOAD and autosave restarts.
// Layout: magic "SHED", version byte, uint64 inserts (little-endian),
// then the sharded payload.
const (
	envelopeMagic   = "SHED"
	envelopeVersion = 1
	envelopeLen     = 4 + 1 + 8
)

// MarshalBinary snapshots the sketch: the server envelope (insert
// counter) wrapping the library's sharded format.
func (sk *Sketch) MarshalBinary() ([]byte, error) {
	payload, err := sk.structure().MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, envelopeLen+len(payload))
	buf = append(buf, envelopeMagic...)
	buf = append(buf, envelopeVersion)
	buf = binary.LittleEndian.AppendUint64(buf, sk.Inserts())
	return append(buf, payload...), nil
}

// UnmarshalSketch restores a sketch from a snapshot; the snapshot is
// self-describing, so no kind argument is needed. Bare library
// snapshots (she.Sharded*.MarshalBinary output, no server envelope)
// also load; their insert counter starts at zero.
func UnmarshalSketch(data []byte) (*Sketch, error) {
	var inserts uint64
	if len(data) >= envelopeLen && string(data[:4]) == envelopeMagic && data[4] == envelopeVersion {
		inserts = binary.LittleEndian.Uint64(data[5:])
		data = data[envelopeLen:]
	}
	kind, err := she.ShardedSnapshotKind(data)
	if err != nil {
		return nil, err
	}
	sk := &Sketch{kind: kind}
	switch kind {
	case "bloom":
		sk.bloom, err = she.UnmarshalShardedBloomFilter(data)
	case "cm":
		sk.cm, err = she.UnmarshalShardedCountMin(data)
	default:
		sk.hll, err = she.UnmarshalShardedHyperLogLog(data)
	}
	if err != nil {
		return nil, err
	}
	sk.inserts.Store(inserts)
	return sk, nil
}

// NewSketch builds a sketch of the given kind from SKETCH.CREATE
// parameters; kv is consumed, and leftover (unknown) parameters are an
// error.
func NewSketch(kind string, kv map[string]string) (*Sketch, error) {
	take := func(key string, def, max uint64) (uint64, error) {
		v, ok := kv[key]
		if !ok {
			return def, nil
		}
		delete(kv, key)
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			return 0, fmt.Errorf("bad %s=%q: want positive integer", key, v)
		}
		if n > max {
			return 0, fmt.Errorf("%s=%d exceeds maximum %d", key, n, max)
		}
		return n, nil
	}
	var firstErr error
	num := func(key string, def, max uint64) uint64 {
		n, err := take(key, def, max)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return n
	}
	window := num("window", DefaultWindow, MaxWindow)
	shards := num("shards", DefaultShards, MaxShards)
	seed := num("seed", DefaultSeed, ^uint64(0))
	hashes := num("hashes", 0, MaxHashes)
	var alpha float64
	if v, ok := kv["alpha"]; ok {
		delete(kv, "alpha")
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad alpha=%q: want non-negative float", v)
		}
		alpha = f
	}
	opts := she.Options{Window: window, Alpha: alpha, Seed: seed, Hashes: int(hashes)}

	sk := &Sketch{kind: strings.ToLower(kind)}
	var err error
	switch sk.kind {
	case "bloom":
		sk.bloom, err = she.NewShardedBloomFilter(int(num("bits", DefaultBits, MaxBits)), int(shards), opts)
	case "cm":
		sk.cm, err = she.NewShardedCountMin(int(num("counters", DefaultCounters, MaxCounters)), int(shards), opts)
	case "hll":
		sk.hll, err = she.NewShardedHyperLogLog(int(num("registers", DefaultRegisters, MaxRegisters)), int(shards), opts)
	default:
		return nil, fmt.Errorf("unknown sketch kind %q (want bloom, cm or hll)", kind)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err != nil {
		return nil, err
	}
	if len(kv) > 0 {
		unknown := make([]string, 0, len(kv))
		for k := range kv {
			unknown = append(unknown, k)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown parameters for %s: %s", sk.kind, strings.Join(unknown, ", "))
	}
	return sk, nil
}

// Registry is the server's name → sketch map. The registry lock only
// guards the map; sketch operations synchronize per shard, so lookups
// never serialize traffic.
type Registry struct {
	mu       sync.RWMutex
	sketches map[string]*Sketch
	// audit, when SampleProb > 0, is attached to every sketch that
	// enters the registry — CREATE, LOAD, autosave restore and WAL
	// replay alike — so the shadow warms up alongside the sketch.
	audit audit.Config
}

// NewRegistry returns an empty registry; auditCfg.SampleProb <= 0
// leaves every sketch unaudited.
func NewRegistry(auditCfg audit.Config) *Registry {
	return &Registry{sketches: make(map[string]*Sketch), audit: auditCfg}
}

// Create builds and registers a new sketch; it errors if name is
// taken. The (possibly large) arrays are allocated outside the lock.
func (r *Registry) Create(name, kind string, kv map[string]string) error {
	r.mu.RLock()
	_, exists := r.sketches[name]
	r.mu.RUnlock()
	if exists {
		return fmt.Errorf("sketch %q already exists", name)
	}
	sk, err := NewSketch(kind, kv)
	if err != nil {
		return err
	}
	if r.audit.SampleProb > 0 {
		sk.attachAudit(r.audit)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.sketches[name]; exists {
		return fmt.Errorf("sketch %q already exists", name)
	}
	r.sketches[name] = sk
	return nil
}

// Get returns the named sketch.
func (r *Registry) Get(name string) (*Sketch, error) {
	r.mu.RLock()
	sk := r.sketches[name]
	r.mu.RUnlock()
	if sk == nil {
		return nil, fmt.Errorf("no such sketch %q", name)
	}
	return sk, nil
}

// GetBytes is Get for a byte-slice name on the batch fast path: the
// map index compiles to an allocation-free string conversion, and a
// missing name returns nil rather than formatting an error.
func (r *Registry) GetBytes(name []byte) *Sketch {
	r.mu.RLock()
	sk := r.sketches[string(name)]
	r.mu.RUnlock()
	return sk
}

// Put registers sk under name, replacing any existing sketch
// (SKETCH.LOAD semantics). A loaded sketch starts with an empty audit
// shadow: its window content predates the auditor, so error samples
// are skewed until the shadow spans a full window again.
func (r *Registry) Put(name string, sk *Sketch) {
	if r.audit.SampleProb > 0 && sk.aud == nil {
		sk.attachAudit(r.audit)
	}
	r.mu.Lock()
	r.sketches[name] = sk
	r.mu.Unlock()
}

// Reset drops every sketch (a replica wiping local state ahead of a
// full sync).
func (r *Registry) Reset() {
	r.mu.Lock()
	r.sketches = make(map[string]*Sketch)
	r.mu.Unlock()
}

// Drop removes the named sketch.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sketches[name]; !ok {
		return fmt.Errorf("no such sketch %q", name)
	}
	delete(r.sketches, name)
	return nil
}

// Snapshot returns the current name → sketch mapping as one
// consistent copy taken under a single lock acquisition, so snapshot
// writers (checkpoints, autosave) see a set that existed at one
// instant instead of racing Names against Get while sketches are
// created and dropped.
func (r *Registry) Snapshot() map[string]*Sketch {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*Sketch, len(r.sketches))
	for name, sk := range r.sketches {
		out[name] = sk
	}
	return out
}

// SketchInfo is one row of Registry.List: a sketch's identity and the
// cheap descriptive numbers every listing surface (SKETCH.LIST,
// SKETCH.STATS *, /metrics, /debug/vars) agrees on.
type SketchInfo struct {
	Name       string
	Kind       string
	Shards     int
	Window     uint64
	Inserts    uint64
	MemoryBits int
	Sketch     *Sketch
}

// List returns a consistent, name-sorted listing of the registered
// sketches. The set is captured under one lock acquisition (no
// Names-then-Get race with concurrent CREATE/DROP); the per-sketch
// numbers are read afterwards, outside the registry lock.
func (r *Registry) List() []SketchInfo {
	sketches := r.Snapshot()
	names := make([]string, 0, len(sketches))
	for name := range sketches {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SketchInfo, 0, len(names))
	for _, name := range names {
		sk := sketches[name]
		out = append(out, SketchInfo{
			Name:       name,
			Kind:       sk.Kind(),
			Shards:     sk.Shards(),
			Window:     sk.Stats().Window,
			Inserts:    sk.Inserts(),
			MemoryBits: sk.MemoryBits(),
			Sketch:     sk,
		})
	}
	return out
}

// Names returns the registered names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.sketches))
	for name := range r.sketches {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Len returns the number of registered sketches.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sketches)
}
