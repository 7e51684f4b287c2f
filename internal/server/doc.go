// Package server implements shed, a concurrent TCP server that hosts
// many named sliding-window sketches and serves them over a small
// RESP-like text protocol. It is the network face of the SHE library:
// writes are routed through the sharded wrappers (she.Sharded*), so a
// hot sketch scales across cores, and snapshots use the library's
// binary format, so a sketch saved over the wire restores mid-window.
//
// # Wire protocol
//
// One command per line (LF or CRLF terminated, at most 64 KiB); the
// reply is one line, except for starred arrays. Command names are
// case-insensitive; sketch names are [A-Za-z0-9_.:-]{1,128}. Keys are
// decimal uint64s, and any other token is hashed (BOBHash64) — the same
// rule as cmd/she, so `alice` names the same key everywhere.
//
// Replies:
//
//	+<text>      success / scalar value (e.g. +OK, +PONG, +1234.5)
//	:<int>       integer result (membership 0/1, frequency, insert count)
//	-ERR <msg>   command failed; the connection stays open
//	*<n>         array header, followed by n +lines (INFO, SKETCH.LIST)
//
// Commands: README.md's "Verb reference" is the one reference — every
// verb's usage, what it does and what it replies — and TestVerbReference
// holds its headings to the command table in verbs.go.
//
// Example session (nc localhost 6380):
//
//	SKETCH.CREATE flows bloom bits=1048576 window=65536 shards=8
//	+OK
//	SKETCH.INSERT flows alice bob
//	:2
//	SKETCH.QUERY flows alice
//	:1
//	SKETCH.QUERY flows carol
//	:0
//
// # Operations
//
// The server runs one goroutine per connection; pipelining works —
// replies are written in request order and flushed when the input
// buffer drains. The protocol is unauthenticated, so deployments keep
// the listener on loopback (the shed default) unless the network is
// trusted. Config.IdleTimeout reaps a connection that long after its
// latest byte (the deadline is armed before each socket read, so a
// line arriving in pieces is not cut short by its first piece),
// Config.WriteTimeout bounds each reply flush, and Config.MaxConns
// caps concurrent clients (excess dials get -ERR and are closed) — so
// slowloris-style clients cannot pin goroutines forever. Shutdown is
// graceful: the
// listener closes, in-flight commands finish, and with an autosave
// directory configured every sketch is snapshotted on the way down and
// restored on the next start. A panic on a connection's goroutine —
// in a slow-path command, a fast-path read or a batch apply — is
// contained to that connection: its unsent replies are dropped, the
// client gets -ERR internal error and a closed socket, the daemon
// keeps serving (counter panics_recovered).
//
// # Batched execution
//
// Pipelined insert lines (SKETCH.INSERT and MINSERT) run on a batch
// engine rather than one command at a time. A line is scanned once,
// in place and without allocating (ScanLine): verb and name a byte at a
// time, keys as 8-byte words converted straight to uint64 — each
// exactly the key ParseKey gives the token — and a line with a byte
// outside printable ASCII, or a shape the four fast verbs do not have,
// is left to the general path untouched. The keys are grouped by
// target sketch name, and the batch is applied at the next drain
// point: the connection's input buffer running empty, a non-insert
// command arriving, the per-connection cap of 16384 buffered keys, or
// reply-buffer pressure. The apply resolves each name (insertRun, as
// replay and followers do) and pays one lock acquisition and one
// insert record per distinct sketch, one WAL append and one admission
// slot.
//
// The two read verbs ride the same fast path: a SKETCH.QUERY <name>
// <key> or SKETCH.CARD <name> line is answered from the same single
// pass, without allocating, after the inserts pipelined ahead of it
// on the connection have been applied (request order and
// read-your-writes hold; with a WAL the reply waits behind their
// fsync like their own acknowledgements). Every deviation — wrong
// argument count, unknown sketch, a kind that does not answer the
// verb, non-ASCII input, a sampled trace, no free admission slot —
// takes the general path, which renders every error reply. Fast
// commands are counted into commands_total and the connection's
// CLIENT LIST row once per drain, not once per command.
//
// Commit semantics are per batch and unchanged in strength: replies
// for the whole batch are buffered and flushed together, after one
// WAL fsync covering every record and — under Config.SyncReplicas —
// one replica acknowledgement barrier at the end of the connection's
// last record. An acknowledgement therefore never reaches the client
// before its record (and the records of every command before it on
// that connection) is durable; a batch whose fsync fails withholds
// every buffered reply, reports -ERR to the client and closes the
// connection. Batch inserts are logged as insert records — one per
// sketch per batch, 8 bytes a key (see "The insert record" below) — and
// stream to followers like any other record.
// Batch depth is visible in the she_batch_applies_total,
// she_batch_commands_total and she_batch_keys_total counters.
//
// # Overload protection
//
// Config.MaxMemory (shed -max-memory) arms a tracked memory budget
// over everything the server allocates on purpose: sketch arrays as
// allocated (Sketch.ResidentBytes, not the paper's MemoryBits figure),
// audit shadow windows, per-connection buffers, per-replica stream
// state and fixed WAL overhead. An evaluator re-measures every 250ms
// (and immediately on CREATE/DROP/LOAD) and maps usage onto a
// degradation ladder — shed_audit (≥80%: audit shadows shrink to ¼
// capacity), shed_slowlog (≥90%: slow-query recording stops),
// refuse_create (≥95%: CREATE/LOAD answer -ERR OOM), refuse_insert
// (≥100%: INSERT answers -ERR OOM while queries, STATS, AUDIT, INFO
// and replication keep working). Recovery steps back down judged as
// if shed state were restored, plus hysteresis, so the ladder cannot
// oscillate; every transition is counted and logged, and the state is
// visible in INFO (overload_level, memory_used_bytes) and the
// she_overload_* metric families. See overload.go.
//
// Config.MaxInflight (shed -max-inflight) adds admission control: at
// most that many commands execute at once across all connections, and
// a command that cannot get a slot within Config.CommandTimeout
// (default 1s) is answered -ERR BUSY — a reply, not a disconnect, and
// safe to retry after backoff. The semaphore takes an atomic fast
// path when unsaturated, so the healthy-path cost of the whole
// subsystem stays inside the < 5% insert-overhead budget
// (BenchmarkServerInsertOverload against BenchmarkServerInsert).
// PSYNC and REPLCONF bypass admission: replication must drain even on
// a saturated server.
//
// # Observability
//
// The optional debug listener (Config.DebugListen / shed -debug) serves
// three GET pages through obs.Responder, not net/http, whose TLS, x509,
// MIME and HTML kept 2.4 MiB of pages resident in every shed:
//
//	/metrics       Prometheus text exposition (format 0.0.4).
//	/debug/vars    The same counters and per-sketch basics as JSON.
//	/debug/pprof/  obs.Pprof, only with Config.EnablePprof (shed -pprof):
//	               profiling can stall the process.
//
// README.md's "Observability" section lists every metric family with
// its type and meaning (TestMetricReference holds the table to what a
// node with every telemetry layer on emits). One writer, obs.PromWriter,
// keeps each family's samples together under its # TYPE line and
// escapes label values.
//
// The operational counters are declared once (counters, metrics.go),
// and /metrics, INFO and /debug/vars — the last two without the she_
// prefix — list that declaration: every counter is present, at zero,
// from the first scrape. One family each, exported untyped because some
// (connections_active, wal_bytes) also go down. README.md's
// "Observability" section lists them with their help lines
// (TestCounterReference).
//
// Command timing is engineered to be effectively free: a TSC-based
// monotonic clock (internal/obs), timestamps chained across pipelined
// batches (one clock read per command in the steady state), and
// per-connection single-writer accumulators that merge into the shared
// histograms only at batch drain points — so it has no switch.
// Commands at or above Config.SlowThreshold additionally land in the
// slow-query ring served by SLOWLOG, which keeps the last 128. Logs go
// to Config.Logger, a log/slog logger (slog's text format on stderr by
// default).
//
// # Request tracing
//
// Config.TraceSample > 0 (shed -trace-sample) arms sampled end-to-end
// request tracing (internal/obs/xtrace): 1 in every TraceSample
// request lines gets a trace — a 64-bit ID plus named spans covering the
// whole life of the command. On a durable, replicated primary an
// INSERT's trace carries parse, execute, mutate, wal_append,
// fsync_wait (group-commit fsync), replack_wait (semi-sync replica
// ack), repl_ship (record written to the replica stream) and replack
// (the follower's acknowledgement round-trip). The primary stamps the
// trace ID onto the sampled record's REC frame, and the follower
// joins the SAME trace — regardless of its own sampling rate — adding
// apply and commit_fsync spans, so TRACE GET <id> on each node
// returns the two halves of one distributed trace. An unsampled REC
// header still has five fields; a sampled one carries a sixth.
//
// What telemetry retains sits in one bounded ring type, obs.Ring, with
// one retention policy: a full ring drops its oldest entry. SLOWLOG
// keeps the last 128 slow commands; TRACE the last 256 finished
// traces; the replication stream keeps sampled appends until they ship
// (1024) and shipped ones until the follower's REPLACK covers them (512
// a replica). The trace ring pins errored and slow (≥10ms) traces: it
// drops the oldest unpinned trace first and a pinned one only when all
// are pinned, so the interesting traces survive churn. A ring's length
// is an atomic, so the stream's per-record ship lookup and per-ack
// replack completion cost one load while no trace is in flight.
// TRACE GET renders the retained traces as JSON;
// SLOWLOG entries carry trace=<id> for sampled commands, and the
// she_trace_exemplar_seconds{verb,trace_id} gauges link the per-verb
// latency histograms to a concrete retained trace. With a rate on, a
// request line costs one atomic add, shared with traffic sampling,
// held to a < 5% budget on the insert path
// (BenchmarkServerInsertTrace, 1-in-256 sampling).
//
// # Traffic self-telemetry
//
// Config.TrafficSample > 0 (shed -traffic-sample) arms traffic
// self-telemetry (internal/obs/traffic): 1 in every TrafficSample
// request lines is sampled. The sample shares the tracer's one
// decision (obs.Sampler): one tick counts request lines, blank and
// unparseable ones included, while either rate is on, and a line is
// traced or traffic-sampled when the tick is a multiple of that rate —
// one atomic add a line for both, two atomic loads with both off. A
// sampled insert feeds its already-parsed keys into its sketch's own
// sliding-window she.TopK — shed measuring its own traffic with its
// own sketch — served by HOTKEYS
// and the she_hotkeys_* families; a sampled command of any verb
// becomes a MONITOR frame when (and only when) a monitor is attached.
// Per-connection accounting (CLIENT LIST) is always on and amortized:
// bytes are counted once per syscall, per-verb command counts settle
// once per pipelined batch.
//
// The error model for HOTKEYS estimates: over the sampled sub-stream
// the SHE-CM estimate never undercounts (the paper's one-sided bound),
// and scaling by the rate R turns a key's sampled count s into
// est_count = s·R. Sampling adds binomial noise on top: a key with
// true windowed count n is sampled s ~ Binomial(n, 1/R) times, so
// est_count has mean n and standard deviation √(n·(R-1)) ≈ √(n·R) —
// about ±6% relative at n=100k, R=64, growing as keys get rarer. Rank
// order among genuinely hot keys is therefore stable (the integration
// gate holds recall@10 ≥ 0.9 on a Zipf(1.1) stream at 1/64 sampling),
// while tail keys churn; size R against the hottest traffic you need
// to resolve, not the tail. Hot-key state is the top 10 keys and a
// fixed CM per sketch with sampled inserts. It belongs to the sketch:
// DROP, LOAD and a full sync take it, a missing name builds none, and
// -max-memory counts it.
//
// The MONITOR feed is bounded the same way the rest of the hot path
// is wait-free: each subscriber gets a fixed ring of frames, a
// publisher that cannot buffer a frame drops it and increments
// monitor_dropped_total, and with no subscribers the sampled path
// skips rendering entirely. A lagging or dead monitor can therefore
// never block an insert (BenchmarkServerInsertTraffic rides the same
// < 5% budget, 1-in-256 sampling).
//
// # Accuracy auditing
//
// Config.AuditSample > 0 (shed -audit-sample) turns on the online
// accuracy auditor (internal/audit) for every sketch: a deterministic
// hash split samples keys with probability p (a key is audited iff
// hash(key, seed) < p·2⁶⁴, so every occurrence of a sampled key is
// seen), mirrors the sampled sub-stream into an exact sliding window
// of capacity ⌈p·N⌉ — the sub-stream arrives at rate p, so the small
// shadow spans approximately the sketch's own N most recent stream
// positions — and compares each live sketch answer against exact
// truth at insert time. Frequency and membership probe shadow entries
// N/2 to 3N/4 stream items old, which a sketch keeping too short a
// window has forgotten or under-counts: frequency sketches get
// streaming ARE/AAE, membership gets false-positive/negative rates
// (absent-key probes drawn from a ring of expired sampled keys),
// cardinality gets
// relative error with truth scaled by 1/p. Every error is also
// bucketed by cleaning-cycle phase (16 buckets of CyclePos/Tcycle),
// which makes error breathing across the lazy-cleaning sweep directly
// visible in she_audit_phase_err.
//
// Memory is bounded by the shadow capacity and Config.AuditMaxKeys
// distinct keys (default 65536); when the key cap binds, coverage < 1
// reports the audited fraction. With auditing off the insert path
// pays one nil check; at p=1/1024 the measured overhead is under 5%
// (BenchmarkServerInsertAudit). Auditor state is not persisted: after a restart
// or SKETCH.LOAD the shadow refills within one window, and early
// error samples are skewed until it does.
//
// # Durability
//
// Two tiers. AutosaveDir is best-effort: sketches load at Start and
// save at graceful Shutdown, so kill -9 loses everything since the
// last save. WALDir (shed -wal) is crash-safe: every applied mutation
// (SKETCH.CREATE/INSERT/DROP) is appended to a write-ahead log in
// internal/wal format, and a batch's replies are flushed only after
// the log is fsynced — an acknowledged write is on disk, period. At
// Start the server loads the latest checkpoint snapshot generation
// and replays the log on top of it; SIGKILL at any instant loses
// nothing acknowledged. Once the log exceeds Config.CheckpointBytes a
// checkpoint snapshots every sketch into a fresh generation directory
// and truncates the log (SKETCH.LOAD, which the record log cannot
// express, forces one before acking). When WALDir is set it supersedes
// AutosaveDir entirely.
//
// One lock orders the log (ordMu). mutate is the one apply-then-log
// path: a connection batch, a slow-path CREATE, DROP or insert and a
// follower's burst each apply and append their records inside one
// hold, so writers apply in log order and the log rebuilds the state
// exactly. checkpoint holds it around a whole-state replacement (LOAD)
// and the snapshot, and a full sync around its seal of the registry at
// the log tip. So a checkpoint or a full sync sees none or all of an
// apply-and-append, and a snapshot is the state at the log position it
// is taken at.
//
// Every snapshot file the server writes — WAL checkpoints, autosaves,
// SKETCH.SAVE — is sealed in a checksummed envelope (magic, version,
// CRC32C, length) and replaced atomically, so a torn or bit-flipped
// file is detected on load, never restored. It streams into place one
// shard at a time (wal.WriteSealed): the header's bytes are reserved in
// a temporary file, each shard is encoded under its lock into one
// reused buffer and written behind them, the header goes over the
// reservation last, and then fsync, rename, fsync dir. No copy of the
// whole sketch is made; a full sync, which sends the files to a socket
// after releasing ordMu, seals them in memory instead (wal.Seal), the
// same bytes. A file loads only if it is sealed and carries
// the server envelope ("SHED": version and insert counter) inside the
// seal; anything else is quarantined to <file>.she.corrupt and counted
// (snapshots_quarantined), and the rest of the directory still loads.
// A snapshot whose cells were placed under position scheme 1 (core
// magic "SHE1", before the K positions of a key came from one mix) is
// refused on every route — LOAD, recovery, autosave restore, a
// follower's full sync — with an error that names both schemes; on the
// file routes it is quarantined like a damaged one, and a quarantined
// file outlives the checkpoint generation it was found in. An unsealed
// file — only builds from before the seal wrote one, and it holds
// scheme-1 cells — is refused with the seal's error ("not sealed")
// rather than the scheme's; it never loaded in this scheme either.
//
// If an fsync of the log itself fails, durability of appended records
// becomes unprovable, so the server fails stop: the failing batch's
// acknowledgements are withheld (the client gets one -ERR wal sync
// failed line and a closed connection) and the log error is sticky —
// every later mutation and commit fails until an operator restarts the
// process. All of this is exercised by fault-injection tests that
// crash a simulated filesystem (internal/failfs) at every single
// mutating operation and assert no acknowledged write is ever lost.
//
// # Replication
//
// Config.ReplicaOf (shed -replicaof host:port) starts the server as a
// read-only follower of a primary; both sides need a WAL, which
// doubles as the replication log. The subsystem lives in
// internal/repl; the wire exchange, on an ordinary client connection:
//
//	follower                          primary
//	PING                       ->     +PONG
//	REPLCONF LISTENING-PORT p  ->     +OK
//	PSYNC ?                    ->     +FULLRESYNC <gen> <seg> <off> <n>
//	                                  SNAP <name> <size>\n<bytes>\n  (xn)
//	                                  ENDSNAP
//	  ... or, with a cursor ...
//	PSYNC <gen> <seg> <off>    ->     +CONTINUE <gen> <seg> <off>
//	                                  REC <gen> <seg> <off> <len>\n<payload>\n ...
//	                                  PING                            (1s heartbeat)
//	REPLACK <gen> <seg> <off> <recs> <bytes>   (follower, after apply+fsync)
//
// The replication cursor (gen, seg, off) is a position in the
// primary's log: checkpoint generation, WAL segment sequence number,
// byte offset after the last applied record. A full sync reads no
// checkpoint: in one hold of the log's ordering lock the primary seals
// every sketch, syncs the log and sends its tip as the start cursor, so
// the files hold exactly the records before it. The follower loads
// them into an emptied registry and checkpoints once, when the
// transfer is complete (a crash before that recovers its previous
// state), then acknowledges the start — a semi-synchronous commit
// counts it from that ack, not from the attach. A PSYNC cursor whose
// segments were checkpointed away gets +FULLRESYNC instead of
// +CONTINUE; while a replica is attached, checkpoints retain every
// segment at or after its acked cursor, so lag grows the log rather
// than forcing resyncs. The primary streams only fsynced bytes (a
// replica never holds a write the primary could lose in a crash), and
// a follower acks only after applying the record through the crash-
// recovery replay path and fsyncing it to its own WAL — so a
// follower's acked state survives its own kill -9, recoverable by
// restarting without -replicaof. It does so a burst at a time: the REC
// frames its reader holds (at most 256 KiB of payload) are applied in
// order and logged with one batched append, in one pass through
// mutate, fsynced once and acknowledged once. A follower restart deliberately
// full-syncs: a persisted-but-stale cursor would double-apply
// non-idempotent inserts, and an ahead-of-disk one would skip records.
//
// The insert record. In the WAL and on the REC stream an insert is
// one binary record: 0x01, the name's length, the name, then the keys
// as little-endian uint64s, their count read off the record's length.
// 0x01 is a control byte ParseCommand rejects, so the first byte tells
// an insert record from the text lines SKETCH.CREATE and SKETCH.DROP
// are logged as; the length + CRC32C framing is the WAL's, unchanged.
// Replay and follower apply decode it straight into
// insertRun. A decimal INSERT/MINSERT line, which only
// binaries from before position scheme 2 logged, is refused by name and
// counted in wal_replay_skipped. At 8.0 bytes a key instead of
// about 20, Config.CheckpointBytes and Config.ReplicaMaxLagBytes
// (-repl-max-lag) cover about 2.5x as many keys per byte as they did.
// See DESIGN.md §9.
//
// Followers serve reads (QUERY/CARD/STATS/AUDIT/SLOWLOG/INFO/ROLE)
// and refuse mutations with -ERR READONLY. A follower's answers are
// the primary's as of she_repl_follower_staleness_seconds ago —
// bounded staleness, i.e. the sliding window shifted by the lag — and
// the accuracy auditor (Config.AuditSample) runs unchanged on the
// replicated stream, so replica-side error is measured, not assumed.
//
// Replication is asynchronous by default. Config.SyncReplicas > 0
// (shed -sync-replicas) makes commits semi-synchronous: a batch is
// acknowledged only after that many replicas have acked the end of the
// last record the connection logged — its own records, not the log's
// tip, which a checkpoint leaves where no replica can ack it; if too
// few do within Config.SyncReplicaTimeout (default 2s) the batch fails
// with -ERR (counter repl_sync_timeouts) instead of overstating
// replication. A batch that logged nothing never waits. SKETCH.LOAD
// writes a checkpoint, not a record, so no replica ever receives it:
// it is refused under semi-sync, and an asynchronous replica misses it.
//
// Failover is operator-driven — there is deliberately no consensus
// layer. REPLICAOF NO ONE promotes a follower in place (counter
// repl_promotions); REPLICAOF host port repoints any server at a new
// primary. With -sync-replicas 1, promotion after a primary crash
// loses zero acknowledged writes; the replication integration tests
// and scripts/replsmoke.sh both kill a primary mid-stream and prove
// it. Chained replication (a PSYNC against a follower) is refused.
//
// A disconnected follower reconnects with capped exponential backoff:
// the delay starts at Config.ReplRetryInterval (shed -repl-retry,
// default 1s), doubles per consecutive failure with jitter, and is
// capped at Config.ReplMaxRetryInterval (-repl-retry-max, default
// 30s); the state shows in ROLE (consecutive_failures=, next_retry_ms=)
// and the follower backoff gauges. On the primary,
// Config.ReplicaMaxLagBytes (-repl-max-lag) bounds how much WAL a
// slow replica may pin: a replica whose acked cursor falls further
// behind the durable tip is disconnected (repl_slow_replica_drops)
// and full-syncs when it returns.
//
// The network failure modes are tested the way durability is: the
// chaos suite (chaos_test.go) wires internal/failnet — a
// fault-injecting net.Conn/net.Listener seam with seeded latency,
// torn writes, injected resets and partitions — under Config.ReplDial
// and Config.WrapConn, and asserts zero acked-insert loss, bounded
// audit error and intact reply framing across partition/heal cycles,
// a reset at every handshake network operation, and repeated
// kill-and-promote chains. scripts/chaossmoke.sh repeats this against
// real shed binaries.
package server
