package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"she/internal/audit"
	"she/internal/failfs"
	"she/internal/obs"
	"she/internal/obs/traffic"
	"she/internal/obs/xtrace"
	"she/internal/repl"
	"she/internal/wal"
)

// snapshotExt is the autosave file extension; the base name is the
// sketch name.
const snapshotExt = ".she"

// Config configures a Server.
type Config struct {
	// Listen is the TCP address for the sketch protocol, e.g. ":6380"
	// or "127.0.0.1:0".
	Listen string
	// DebugListen optionally enables an HTTP listener serving JSON
	// counters at /debug/vars ("" = disabled).
	DebugListen string
	// AutosaveDir optionally names a directory of snapshots: every
	// *.she file in it is loaded at Start, and every sketch is saved
	// back at Shutdown.
	AutosaveDir string
	// SnapshotDir optionally names the directory SKETCH.SAVE writes to
	// and SKETCH.LOAD reads from. Clients supply bare file names (same
	// alphabet as sketch names), never paths. Empty falls back to
	// AutosaveDir; with both empty the commands are refused.
	SnapshotDir string
	// IdleTimeout closes a connection that sends no command for this
	// long (0 = no limit).
	IdleTimeout time.Duration
	// WriteTimeout bounds each flush of buffered replies, so a client
	// that stops reading cannot park its goroutine in a blocked write
	// (0 = no limit).
	WriteTimeout time.Duration
	// MaxConns caps concurrent client connections; excess dials get an
	// -ERR reply and are closed immediately (0 = no limit).
	MaxConns int
	// WALDir enables crash-safe durability: applied mutations are
	// appended to a write-ahead log in this directory and replayed over
	// the latest checkpoint snapshot at startup, so a kill -9 loses no
	// acknowledged write. When set it supersedes AutosaveDir as the
	// durability mechanism (AutosaveDir is neither loaded nor written).
	WALDir string
	// CheckpointBytes bounds the WAL: once the log exceeds this size a
	// snapshot-then-truncate checkpoint runs (0 = DefaultCheckpointBytes).
	CheckpointBytes int64
	// FS is the filesystem used for snapshots and the WAL; nil means
	// the real one. Fault-injection tests substitute failfs.Fault.
	FS failfs.FS
	// SlowThreshold sends any command that takes at least this long to
	// the slow-query log (SLOWLOG command, the last slowLogSize entries)
	// and the slow_commands_total counter (0 = slow-query logging
	// disabled).
	SlowThreshold time.Duration
	// EnablePprof serves /debug/pprof/ (obs.Pprof) on the debug
	// listener (requires DebugListen). Off by default: profiling
	// endpoints can stall the process and belong behind an explicit
	// opt-in even on a loopback-only listener.
	EnablePprof bool
	// AuditSample enables online accuracy auditing: every sketch gets
	// a deterministic hash-sampled exact shadow (keys with
	// hash(key) < AuditSample·2^64 are audited), and live answers are
	// continuously compared against shadow truth — frequency ARE/AAE,
	// membership false positives/negatives, cardinality relative error
	// — bucketed by cleaning-cycle phase. Served by SKETCH.AUDIT and
	// the she_audit_* metric families. 0 disables auditing; the insert
	// path then pays a single nil check.
	AuditSample float64
	// AuditMaxKeys caps each auditor's shadow window capacity (its
	// memory bound) regardless of AuditSample·window; 0 =
	// audit.DefaultMaxKeys. When the cap binds, the shadow spans a
	// shorter effective window (reported as audit coverage < 1).
	AuditMaxKeys int
	// TraceSample enables request tracing: one request line in every
	// TraceSample gets a Dapper-style trace with child spans for
	// parse, mutation, WAL append, group-commit fsync, replication
	// ship and the follower's apply — cross-node, because the sampled
	// trace ID rides the replicated record. The last 256 traces are
	// retained, slow or failed ones evicted last, served by the TRACE
	// verb family and summarized as she_trace_* metrics. 0 disables
	// root sampling; TRACE SAMPLE changes the rate at runtime, and a
	// replica joins primary-sampled traces regardless of its own rate.
	TraceSample int
	// TrafficSample enables traffic self-telemetry sampling: one
	// request line in every TrafficSample feeds the hot-key track of its
	// sketch (HOTKEYS, she_hotkeys_*) and the MONITOR broadcast. It
	// shares its tick with TraceSample (see obs.Sampler), so with both
	// at 0 a line costs two atomic loads. Per-connection accounting
	// (CLIENT LIST, the INFO clients section) is always on; its cost is
	// amortized per syscall and per batch, not per command.
	TrafficSample int
	// ReplicaOf starts the server as a replica of the given primary
	// address ("host:port"): it full-syncs from the primary's sketches
	// sealed at its log tip, tails its WAL, serves reads, and refuses
	// client mutations until REPLICAOF NO ONE promotes it. Requires WALDir —
	// a replica's acknowledgements promise local durability.
	ReplicaOf string
	// SyncReplicas makes commits semi-synchronous on a primary: a
	// batch containing mutations is acknowledged to the client only
	// after this many replicas confirm they applied and fsynced it
	// (0 = asynchronous replication). With it, promoting an acked
	// replica after a primary crash loses no acknowledged write.
	SyncReplicas int
	// SyncReplicaTimeout bounds the semi-synchronous wait; on expiry
	// the batch fails (it is durable locally but its replication is
	// unproven, so the client is told, fail-stop style). 0 = 2s.
	SyncReplicaTimeout time.Duration
	// MaxMemory enables overload protection: a budget in bytes over
	// the accounted footprint (sketch arrays, audit shadows, per-conn
	// buffers, per-replica stream buffers, WAL overhead). As usage
	// climbs the server degrades through an explicit ladder — shed
	// audit shadows, drop slowlog, refuse SKETCH.CREATE, -ERR OOM on
	// INSERT — instead of dying; see internal/server/overload.go.
	// 0 disables (the insert path then pays one atomic load).
	MaxMemory int64
	// MaxInflight caps commands executing at once across all
	// connections (admission control); a command that cannot get a
	// slot within CommandTimeout is answered -ERR BUSY rather than
	// queueing without bound. 0 = no cap.
	MaxInflight int
	// CommandTimeout bounds a command's wait for an admission slot.
	// 0 = 1s. Meaningful only with MaxInflight.
	CommandTimeout time.Duration
	// ReplicaMaxLagBytes disconnects an attached replica whose
	// acknowledged position trails the stream by more than this many
	// WAL bytes (Redis client-output-buffer-limit style): a stalled
	// replica must not pin WAL segments and stream buffers forever.
	// It reconnects and resumes — or full-resyncs if its cursor was
	// checkpointed away. 0 = no limit.
	ReplicaMaxLagBytes int64
	// ReplRetryInterval is the follower's base reconnect pause
	// (doubled per consecutive failure, with jitter). 0 = 1s.
	ReplRetryInterval time.Duration
	// ReplMaxRetryInterval caps the follower's reconnect backoff.
	// 0 = 30s.
	ReplMaxRetryInterval time.Duration
	// ReplDial, when set, replaces net.DialTimeout for the follower's
	// primary connection — the fault-injection seam (internal/failnet)
	// for replication chaos tests.
	ReplDial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// WrapConn, when set, wraps every accepted client connection —
	// the accept-side fault-injection seam for chaos tests.
	WrapConn func(net.Conn) net.Conn
	// Logger receives the server's structured log lines; nil means
	// slog's text format on stderr at Info level.
	Logger *slog.Logger
}

// slowLogSize is the slow-query ring's capacity.
const slowLogSize = 128

// Server hosts a registry of named sketches behind a TCP listener, one
// goroutine per connection.
type Server struct {
	cfg   Config
	reg   *Registry
	start time.Time

	// ctr is every operational counter (see counters), in an allocation
	// of its own so the adds of every drain do not share a cache line
	// with the fields below that every command reads; ctrRows lists the
	// same fields by name, sorted, for the surfaces that show them all.
	ctr     *counters
	ctrRows []obs.CounterRow

	// verbHist holds one latency histogram per row of the verb table
	// (OTHER is every unknown name), indexed like it. Built once in New and
	// read-only afterwards, so the hot path indexes and records without
	// locks.
	verbHist []*obs.Histogram
	// walSyncHist, walChkHist and walAppendHist time WAL fsyncs,
	// checkpoints and appends (no fsync).
	walSyncHist, walChkHist, walAppendHist *obs.Histogram

	// slow holds the last slowLogSize slow commands for SLOWLOG.
	slow   *obs.Ring[obs.Command]
	logger *slog.Logger

	// sample takes the one sampling decision per request line, for the
	// tracer and for traffic, in an allocation of its own: its tick is
	// written by every line while a rate is on.
	sample *obs.Sampler
	// tracer owns request-trace IDs and retention. Always non-nil:
	// TRACE SAMPLE can enable tracing at runtime and a replica joins
	// primary traces even with local sampling off.
	tracer *xtrace.Tracer
	// ship correlates a WAL append position with the sampled trace
	// that produced it, so the replication stream can stamp the REC
	// frame and record ship/ack spans.
	ship *obs.Ring[tracedRec]
	// exemplars holds, per verb, the most recent sampled command's
	// trace ID and duration — the histogram-to-trace link exported as
	// she_trace_exemplar_seconds. Indexed like verbHist.
	exemplars []atomic.Pointer[traceExemplar]
	// Traffic self-telemetry: the MONITOR hub that sampled lines feed
	// (each sketch holds its own hot-key track), and the always-on
	// per-connection registry — the one list of live connections.
	hub     traffic.Hub
	clients *traffic.Clients

	ln        net.Listener
	debugLn   net.Listener
	debug     *obs.Responder
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// tracker registers attached replicas and their acknowledged
	// positions; always non-nil, empty on a node with no replicas.
	tracker *repl.Tracker
	// replMu guards the node's replication role: replPrimary is the
	// address this node replicates from ("" = primary) and follower is
	// the running replication client (nil = primary). REPLICAOF
	// rewrites both at runtime.
	replMu      sync.Mutex
	replPrimary string
	follower    *repl.Follower
	// isReplica mirrors replPrimary != "" for the batch fast path,
	// which cannot afford the replMu acquisition per command.
	isReplica atomic.Bool

	// over is the overload-protection state; admit is the admission
	// semaphore (nil without Config.MaxInflight).
	over  overloadState
	admit *admission

	fs  failfs.FS
	wal *wal.Log
	// ordMu is the one lock of the log: mutate holds it across every
	// apply-and-append, checkpoint across a state change, the snapshot
	// and the truncate, and attachReplica across a full sync's seal of
	// the registry at the log tip. So the log order is the apply order,
	// and a snapshot is exactly the state at the log position it is
	// taken at. Not the log's own lock, which Log.Sync holds across
	// fsync; the order is ordMu, then Log.mu.
	ordMu sync.Mutex
	// chkBuf is the checkpoint's encode buffer, under ordMu: it holds one
	// shard's encoding at a time and is reused from file to file.
	chkBuf []byte
}

// auditSeed salts the audit sampling hash, fixed so the audited key
// set is stable across restarts and WAL replay (replayed inserts
// rebuild the same shadow) while staying uncorrelated with the
// sketches' own seeded hash functions.
const auditSeed = 0x5ead0a5d17e55eed

// New returns an unstarted server.
func New(cfg Config) *Server {
	fsys := cfg.FS
	if fsys == nil {
		fsys = failfs.OS{}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if cfg.SyncReplicaTimeout <= 0 {
		cfg.SyncReplicaTimeout = 2 * time.Second
	}
	if cfg.CommandTimeout <= 0 {
		cfg.CommandTimeout = time.Second
	}
	s := &Server{
		cfg: cfg,
		reg: NewRegistry(audit.Config{
			SampleProb: cfg.AuditSample,
			MaxKeys:    cfg.AuditMaxKeys,
			Seed:       auditSeed,
		}),
		ctr:           new(counters),
		verbHist:      make([]*obs.Histogram, numVerbs),
		walSyncHist:   &obs.Histogram{},
		walChkHist:    &obs.Histogram{},
		walAppendHist: &obs.Histogram{},
		exemplars:     make([]atomic.Pointer[traceExemplar], numVerbs),
		tracker:       repl.NewTracker(),
		done:          make(chan struct{}),
		fs:            fsys,
		slow:          obs.NewRing[obs.Command](slowLogSize, nil),
		ship:          obs.NewRing[tracedRec](shipTableSize, nil),
		clients:       traffic.NewClients(verbNames()),
		logger:        logger.With("component", "server"),
	}
	s.ctrRows = obs.CounterRows(s.ctr)
	for i := range s.verbHist {
		s.verbHist[i] = &obs.Histogram{}
	}
	if cfg.MaxInflight > 0 {
		s.admit = newAdmission(cfg.MaxInflight)
	}
	// The seed keeps two nodes started in the same process (tests) or
	// at the same wall instant from minting colliding trace IDs.
	s.tracer = xtrace.New(xtrace.Config{
		Seed: uint64(time.Now().UnixNano()) ^ uint64(traceSeedSalt.Add(0x9e3779b97f4a7c15)),
	})
	s.sample = new(obs.Sampler)
	s.sample.Trace.Set(cfg.TraceSample)
	s.sample.Traffic.Set(cfg.TrafficSample)
	return s
}

// traceSeedSalt differentiates tracer seeds minted in the same
// nanosecond (servers started in one test binary).
var traceSeedSalt atomic.Uint64

// Registry exposes the sketch registry (tests, embedders).
func (s *Server) Registry() *Registry { return s.reg }

// Counters snapshots every operational counter, name → value: what
// /debug/vars serves, and how tests read one.
func (s *Server) Counters() map[string]int64 {
	out := make(map[string]int64, len(s.ctrRows))
	for _, r := range s.ctrRows {
		out[r.Name] = r.C.Value()
	}
	return out
}

// Start binds the listeners, restores autosaved sketches, and begins
// serving in background goroutines. It returns once the addresses are
// bound, so tests can dial Addr() immediately.
func (s *Server) Start() error {
	if s.cfg.WALDir != "" {
		if err := s.recoverWAL(); err != nil {
			return err
		}
	} else if s.cfg.AutosaveDir != "" {
		if err := s.loadAutosaves(); err != nil {
			return err
		}
	}
	if s.cfg.SnapshotDir != "" {
		if err := s.fs.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
			return fmt.Errorf("server: snapshot dir: %w", err)
		}
	}
	ln, err := net.Listen("tcp", s.cfg.Listen)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	s.start = time.Now()
	if s.cfg.DebugListen != "" {
		dln, err := net.Listen("tcp", s.cfg.DebugListen)
		if err != nil {
			ln.Close()
			return fmt.Errorf("server: debug listener: %w", err)
		}
		s.debugLn = dln
		s.debug = obs.Serve(dln, s.debugRoute)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	s.startOverload()
	if s.cfg.ReplicaOf != "" {
		if err := s.startReplication(s.cfg.ReplicaOf); err != nil {
			s.Abort()
			return fmt.Errorf("server: %w", err)
		}
	}
	return nil
}

// Addr returns the bound protocol address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// DebugAddr returns the bound debug address, or nil if disabled.
func (s *Server) DebugAddr() net.Addr {
	if s.debugLn == nil {
		return nil
	}
	return s.debugLn.Addr()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (shutdown) or fatal accept error
		}
		// Only this loop raises connections_active, so the check cannot
		// let two connections past the last free slot.
		if s.cfg.MaxConns > 0 && s.ctr.ConnsActive.Value() >= int64(s.cfg.MaxConns) {
			s.ctr.ConnsRejected.Inc()
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			io.WriteString(conn, "-ERR too many connections\n")
			conn.Close()
			continue
		}
		s.ctr.ConnsTotal.Inc()
		s.ctr.ConnsActive.Inc()
		if s.cfg.WrapConn != nil {
			conn = s.cfg.WrapConn(conn)
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// snapshotPath resolves a client-supplied snapshot file name inside the
// configured snapshot directory. Clients never supply paths: the name
// must pass ValidName (no separators, no ".."), the server appends the
// .she extension, and the commands are refused outright when no
// directory is configured — an unauthenticated peer must not reach
// arbitrary files.
func (s *Server) snapshotPath(file string) (string, error) {
	dir := s.cfg.SnapshotDir
	if dir == "" {
		dir = s.cfg.AutosaveDir
	}
	if dir == "" {
		return "", fmt.Errorf("no snapshot directory configured; SKETCH.SAVE/LOAD are disabled")
	}
	if !ValidName(file) {
		return "", fmt.Errorf("invalid snapshot file name %q (bare name, no path)", file)
	}
	return filepath.Join(dir, file+snapshotExt), nil
}

// Shutdown drains the server gracefully: stop accepting, let in-flight
// commands finish, then close the connections. If ctx expires first
// the remaining connections are closed hard. With an autosave
// directory configured, every sketch is snapshotted on the way down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() { close(s.done) })
	if f := s.currentFollower(); f != nil {
		f.Stop()
	}
	if s.ln != nil {
		s.ln.Close()
	}
	if s.debug != nil {
		s.debug.Close()
	}
	// Unblock connections parked in a read; their loops notice s.done
	// after answering whatever was in flight.
	for _, c := range s.clients.Conns() {
		c.SetReadDeadline(time.Now())
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		for _, c := range s.clients.Conns() {
			c.Close()
		}
	}
	if s.wal != nil {
		// Final checkpoint: restart recovers from snapshots alone.
		if cerr := s.checkpoint(true, nil); err == nil {
			err = cerr
		}
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
	} else if s.cfg.AutosaveDir != "" {
		if serr := s.saveAutosaves(); err == nil {
			err = serr
		}
	}
	return err
}

// Abort tears the server down immediately — listeners and connections
// close, no drain, no checkpoint, no autosave — simulating a crash
// (kill -9) for durability tests. Only state already made durable by
// commit-time WAL syncs or past checkpoints survives, which is
// exactly the guarantee the tests assert.
func (s *Server) Abort() {
	s.closeOnce.Do(func() { close(s.done) })
	if f := s.currentFollower(); f != nil {
		f.Stop()
	}
	if s.ln != nil {
		s.ln.Close()
	}
	if s.debug != nil {
		s.debug.Close()
	}
	for _, c := range s.clients.Conns() {
		c.Close()
	}
	s.wg.Wait()
}

// loadAutosaves restores every *.she snapshot in the autosave dir,
// named by file base name. A missing directory is created, not an
// error, so first start works; a corrupt file is quarantined, not
// fatal.
func (s *Server) loadAutosaves() error {
	dir := s.cfg.AutosaveDir
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: autosave dir: %w", err)
	}
	return s.loadSnapshotDir(dir)
}

// saveAutosaves snapshots every sketch into the autosave dir, each
// file sealed (checksummed) and replaced atomically so a crash
// mid-save can never leave a torn snapshot behind.
func (s *Server) saveAutosaves() error {
	var firstErr error
	var buf []byte
	for _, in := range s.reg.List() {
		var err error
		buf, err = writeSketchFile(s.fs, filepath.Join(s.cfg.AutosaveDir, in.Name+snapshotExt), in.Sketch, buf)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: autosave %s: %w", in.Name, err)
		}
	}
	return firstErr
}

// debugRoute answers the debug listener: /metrics, /debug/vars and,
// with EnablePprof, /debug/pprof/.
func (s *Server) debugRoute(ctx context.Context, path, query string, body *bytes.Buffer) (string, error) {
	switch {
	case path == "/metrics":
		s.writeMetrics(body)
		return "text/plain; version=0.0.4; charset=utf-8", nil
	case path == "/debug/vars":
		s.writeVars(body)
		return "application/json", nil
	case s.cfg.EnablePprof && strings.HasPrefix(path, "/debug/pprof/"):
		return obs.Pprof(ctx, path, query, body)
	}
	return "", nil
}

// writeVars writes the operational counters as JSON — an
// expvar-flavored snapshot of uptime, command rate, every counter, and
// per-sketch stats. The sketch listing comes from one consistent
// Registry.List capture, so a concurrent CREATE/DROP can't make the
// response contradict itself.
func (s *Server) writeVars(w io.Writer) {
	type sketchInfo struct {
		Kind       string `json:"kind"`
		Shards     int    `json:"shards"`
		Inserts    uint64 `json:"inserts"`
		MemoryBits int    `json:"memory_bits"`
	}
	uptime := time.Since(s.start).Seconds()
	out := struct {
		UptimeSeconds  float64               `json:"uptime_seconds"`
		CommandsPerSec float64               `json:"commands_per_sec"`
		Counters       map[string]int64      `json:"counters"`
		Sketches       map[string]sketchInfo `json:"sketches"`
	}{
		UptimeSeconds: uptime,
		Counters:      s.Counters(),
		Sketches:      make(map[string]sketchInfo),
	}
	if uptime > 0 {
		out.CommandsPerSec = float64(out.Counters["commands_total"]) / uptime
	}
	for _, in := range s.reg.List() {
		out.Sketches[in.Name] = sketchInfo{
			Kind:       in.Sketch.Kind(),
			Shards:     in.Sketch.Shards(),
			Inserts:    in.Sketch.Inserts(),
			MemoryBits: in.Sketch.MemoryBits(),
		}
	}
	json.NewEncoder(w).Encode(out)
}
