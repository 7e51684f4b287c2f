package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"she"
	"she/internal/audit"
	"she/internal/obs/traffic"
)

// Default SKETCH.CREATE parameters common to every kind; a kind's size
// parameter has its default in the kind's row.
const (
	DefaultWindow = 1 << 16
	DefaultShards = 8
	DefaultSeed   = 1
)

// Upper bounds on client-supplied SKETCH.CREATE parameters, beside the
// size caps in the kinds' rows. The caps keep a single CREATE from
// allocating unbounded memory on behalf of an unauthenticated client,
// and keep every size well inside int range so nothing wraps negative
// on conversion.
const (
	MaxWindow = 1 << 32
	MaxShards = 1 << 12
	MaxHashes = 64
)

// structure is what every sharded sliding-window structure does alike;
// what differs from kind to kind is in the kind's row.
type structure interface {
	Insert(key uint64)
	InsertBatch(keys []uint64, sc *she.BatchScratch)
	Shards() int
	// MemoryBits is the payload as the paper counts it: cells plus one
	// mark bit per group. ResidentBytes is what is held allocated — cell
	// words plus the group clocks' word a group — the figure -max-memory
	// budgets.
	MemoryBits() int
	ResidentBytes() int
	// Stats snapshots the SHE window state — fill, cleaning cycle
	// position, young/perfect/aged cell counts — aggregated across
	// shards. Read-only: it never triggers cleaning, so the numbers are
	// approximate between cleanings (see she.SketchStats). It visits
	// every cell under the shard locks; a listing calls it once a sketch.
	Stats() she.SketchStats
	AppendBinary(dst []byte) ([]byte, error)
	WriteBinary(w io.Writer, buf []byte) ([]byte, error)
}

// kind is one row of the kind table: everything the server knows about
// a sketch kind, declared once — the sketch analogue of a verbs row. A
// new kind is one row here and its line under SKETCH.CREATE in the
// README; TestKindTable takes every row through create, insert, answer,
// save, load and audit.
type kind struct {
	// name is the SKETCH.CREATE token, what listings print, and the tag
	// she.ShardedSnapshotKind reads off the kind's snapshots.
	name string
	// size is the SKETCH.CREATE parameter that sizes the structure — a
	// total across shards — with its default and its cap.
	size     string
	def, max uint64
	build    func(size, shards int, opts she.Options) (structure, error)
	decode   func(data []byte) (structure, error)
	// query answers SKETCH.QUERY and card SKETCH.CARD. A kind answers one
	// of them; nil refuses the verb by the kind's name.
	query func(st structure, key uint64) int64
	card  func(st structure) float64
	// audit is how the accuracy auditor scores the kind, probes the
	// answers it holds against the exact shadow.
	audit  audit.Kind
	probes func(st structure) audit.Probes
}

var kinds = []kind{{
	name: "bloom", size: "bits", def: 1 << 20, max: 1 << 30, // at most 128 MiB of filter bits
	build:  func(n, p int, o she.Options) (structure, error) { return orNil(she.NewShardedBloomFilter(n, p, o)) },
	decode: func(b []byte) (structure, error) { return orNil(she.UnmarshalShardedBloomFilter(b)) },
	query: func(st structure, key uint64) int64 { // membership, 0 or 1
		if st.(*she.ShardedBloomFilter).Query(key) {
			return 1
		}
		return 0
	},
	audit:  audit.Membership,
	probes: func(st structure) audit.Probes { return audit.Probes{Contains: st.(*she.ShardedBloomFilter).Query} },
}, {
	name: "cm", size: "counters", def: 1 << 16, max: 1 << 26,
	build:  func(n, p int, o she.Options) (structure, error) { return orNil(she.NewShardedCountMin(n, p, o)) },
	decode: func(b []byte) (structure, error) { return orNil(she.UnmarshalShardedCountMin(b)) },
	query:  func(st structure, key uint64) int64 { return int64(st.(*she.ShardedCountMin).Frequency(key)) },
	audit:  audit.Frequency,
	probes: func(st structure) audit.Probes { return audit.Probes{Frequency: st.(*she.ShardedCountMin).Frequency} },
}, {
	name: "hll", size: "registers", def: 4096, max: 1 << 24,
	build:  func(n, p int, o she.Options) (structure, error) { return orNil(she.NewShardedHyperLogLog(n, p, o)) },
	decode: func(b []byte) (structure, error) { return orNil(she.UnmarshalShardedHyperLogLog(b)) },
	card:   func(st structure) float64 { return st.(*she.ShardedHyperLogLog).Cardinality() },
	audit:  audit.Cardinality,
	probes: func(st structure) audit.Probes {
		return audit.Probes{Cardinality: st.(*she.ShardedHyperLogLog).Cardinality}
	},
}}

// orNil fits a constructor's or decoder's (*T, error) to a row's
// signature: a nil *T must not become a non-nil structure.
func orNil[T structure](st T, err error) (structure, error) {
	if err != nil {
		return nil, err
	}
	return st, nil
}

// lookupKind returns the row of the named kind, nil for a name with no
// row. Only creates and loads look a kind up — a Sketch holds its row —
// so a walk is enough.
func lookupKind(name string) *kind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
}

// kindList spells the names of the rows — with cardOnly, of those that
// answer SKETCH.CARD — the way an error text lists alternatives: "bloom,
// cm or hll".
func kindList(cardOnly bool) string {
	var names []string
	for i := range kinds {
		if !cardOnly || kinds[i].card != nil {
			names = append(names, kinds[i].name)
		}
	}
	if n := len(names); n > 1 {
		return strings.Join(names[:n-1], ", ") + " or " + names[n-1]
	}
	return strings.Join(names, "")
}

// Sketch is one named sketch hosted by the server: a sharded
// sliding-window structure — embedded, so what every kind answers alike
// (Shards, MemoryBits, ResidentBytes, Stats) is the structure's own
// answer — the row of its kind, its insert counter and the telemetry of
// its stream, which comes and goes with it. All methods are safe for
// concurrent use — writes go through the sharded wrappers, so
// different keys proceed in parallel on different cores.
type Sketch struct {
	structure
	row     *kind
	inserts atomic.Uint64
	// window is Stats().Window, the sum of the shards' windows, which
	// the geometry fixes: SKETCH.LIST reads it without a cell scan.
	window uint64
	// aud, when non-nil, audits this sketch's answers against a
	// hash-sampled exact shadow (see internal/audit). Attached before
	// the sketch is published to the registry map, so the insert path
	// reads it without atomics: one nil check when auditing is off.
	aud *audit.Auditor
	// hot tracks the hot keys of the sampled inserts (Registry.noteHot).
	hot atomic.Pointer[traffic.Track]
}

// Kind returns the name of the sketch's kind: "bloom", "cm" or "hll".
func (sk *Sketch) Kind() string { return sk.row.name }

// Inserts returns how many keys this sketch has absorbed since it was
// created or loaded.
func (sk *Sketch) Inserts() uint64 { return sk.inserts.Load() }

// Insert records key as the next item of the sketch's stream; see
// InsertBatch, which is what the server itself calls.
func (sk *Sketch) Insert(key uint64) {
	n := sk.inserts.Add(1)
	sk.structure.Insert(key)
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
		sk.structure.InsertBatch(keys, sc)
		return
	}
	pending := 0
	for i, key := range keys {
		if a.Sampled(key) {
			sk.structure.InsertBatch(keys[pending:i+1], sc)
			pending = i + 1
			a.Observe(key, n+uint64(i)+1)
		}
	}
	sk.structure.InsertBatch(keys[pending:], sc)
}

// Audit returns the attached accuracy auditor, nil when auditing is
// off.
func (sk *Sketch) Audit() *audit.Auditor { return sk.aud }

// attachAudit builds and attaches an auditor sized from the sketch's
// aggregate stats. Must run before the sketch is published to the
// registry (Insert reads sk.aud without synchronization).
func (sk *Sketch) attachAudit(cfg audit.Config) {
	st := sk.Stats()
	sk.aud = audit.New(sk.row.audit, cfg, st.Window, st.Tcycle, st.Shards, sk.row.probes(sk.structure))
}

// Query answers the per-key question the sketch's kind supports:
// membership (0/1) for bloom, windowed frequency for cm.
func (sk *Sketch) Query(key uint64) (int64, error) {
	if sk.row.query == nil {
		return 0, fmt.Errorf("%s answers SKETCH.CARD, not SKETCH.QUERY", sk.row.name)
	}
	return sk.row.query(sk.structure, key), nil
}

// Cardinality answers the windowed distinct-count estimate, for the
// kinds that have one (hll).
func (sk *Sketch) Cardinality() (float64, error) {
	if sk.row.card == nil {
		return 0, fmt.Errorf("%s does not estimate cardinality; use %s", sk.row.name, kindList(true))
	}
	return sk.row.card(sk.structure), nil
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

// AppendBinary appends the sketch's snapshot to dst: the server
// envelope (insert counter), then the library's sharded format. It
// stands in front of the structure's own AppendBinary, which would leave
// the envelope out.
func (sk *Sketch) AppendBinary(dst []byte) ([]byte, error) {
	return sk.structure.AppendBinary(sk.appendEnvelope(dst))
}

// appendEnvelope appends the server envelope.
func (sk *Sketch) appendEnvelope(dst []byte) []byte {
	dst = append(dst, envelopeMagic...)
	dst = append(dst, envelopeVersion)
	return binary.LittleEndian.AppendUint64(dst, sk.Inserts())
}

// MarshalBinary snapshots the sketch: AppendBinary to a new buffer.
func (sk *Sketch) MarshalBinary() ([]byte, error) { return sk.AppendBinary(nil) }

// NewSketch builds a sketch of the given kind from SKETCH.CREATE
// parameters; kv is consumed, and leftover (unknown) parameters are an
// error.
func NewSketch(kind string, kv map[string]string) (*Sketch, error) {
	// num consumes one integer parameter; the first one that is malformed
	// or over its cap is the error NewSketch returns.
	var firstErr error
	num := func(key string, def, max uint64) uint64 {
		v, ok := kv[key]
		if !ok {
			return def
		}
		delete(kv, key)
		n, err := strconv.ParseUint(v, 10, 64)
		switch {
		case firstErr != nil:
		case err != nil || n == 0:
			firstErr = fmt.Errorf("bad %s=%q: want positive integer", key, v)
		case n > max:
			firstErr = fmt.Errorf("%s=%d exceeds maximum %d", key, n, max)
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
	row := lookupKind(strings.ToLower(kind))
	if row == nil {
		return nil, fmt.Errorf("unknown sketch kind %q (want %s)", kind, kindList(false))
	}
	size := num(row.size, row.def, row.max)
	if firstErr != nil {
		return nil, firstErr
	}
	st, err := row.build(int(size), int(shards), she.Options{Window: window, Alpha: alpha, Seed: seed, Hashes: int(hashes)})
	if err != nil {
		return nil, err
	}
	if len(kv) > 0 {
		unknown := make([]string, 0, len(kv))
		for k := range kv {
			unknown = append(unknown, k)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown parameters for %s: %s", row.name, strings.Join(unknown, ", "))
	}
	return &Sketch{structure: st, row: row, window: window / shards * shards}, nil
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

// Create builds and registers a new sketch; it errors if name is taken.
func (r *Registry) Create(name, kind string, kv map[string]string) error {
	sk, err := r.Build(name, kind, kv)
	if err == nil {
		err = r.Add(name, sk)
	}
	return err
}

// Build makes the sketch SKETCH.CREATE registers with Add: it refuses a
// taken name, then allocates the arrays and auditor outside every lock.
func (r *Registry) Build(name, kind string, kv map[string]string) (*Sketch, error) {
	if r.GetBytes([]byte(name)) != nil {
		return nil, fmt.Errorf("sketch %q already exists", name)
	}
	sk, err := NewSketch(kind, kv)
	if err != nil {
		return nil, err
	}
	if r.audit.SampleProb > 0 {
		sk.attachAudit(r.audit)
	}
	return sk, nil
}

// Add registers sk, made by Build, under name unless name is taken.
func (r *Registry) Add(name string, sk *Sketch) error {
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

// noteHot feeds one sampled insert's keys to the named sketch's hot-key
// track, which its first sampled insert builds. A name with no sketch
// has no track.
func (r *Registry) noteHot(name []byte, keys []uint64) {
	if sk := r.GetBytes(name); sk != nil {
		if sk.hot.Load() == nil {
			sk.hot.CompareAndSwap(nil, traffic.NewTrack())
		}
		sk.hot.Load().Note(keys)
	}
}

// Put registers sk under name, replacing any existing sketch
// (SKETCH.LOAD semantics). A loaded sketch starts with an empty audit
// shadow and no hot-key track: its window content predates both, so
// error samples are skewed until the shadow spans a full window again.
func (r *Registry) Put(name string, sk *Sketch) {
	if r.audit.SampleProb > 0 && sk.aud == nil {
		sk.attachAudit(r.audit)
	}
	r.mu.Lock()
	r.sketches[name] = sk
	r.mu.Unlock()
}

// Swap installs sketches as the whole registry and returns the mapping
// it replaces, which the registry no longer touches: a replica sets its
// state aside for a full sync, and puts it back if the sync fails.
func (r *Registry) Swap(sketches map[string]*Sketch) map[string]*Sketch {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.sketches
	r.sketches = sketches
	return old
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

// SketchInfo is one row of Registry.List: a sketch under its name. A
// listing that shows cell statistics scans each sketch's cells once, with
// its own Sketch.Stats call; one that shows none scans nothing.
type SketchInfo struct {
	Name   string
	Sketch *Sketch
}

// List returns the registered sketches in name order, captured under
// one lock acquisition, so a snapshot writer (checkpoint, autosave) or a
// listing sees a set that existed at one instant instead of racing a
// name walk against Get while sketches are created and dropped.
func (r *Registry) List() []SketchInfo {
	r.mu.RLock()
	out := make([]SketchInfo, 0, len(r.sketches))
	for name, sk := range r.sketches {
		out = append(out, SketchInfo{name, sk})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered sketches.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sketches)
}
