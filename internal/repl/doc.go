// Package repl is shed's primary/follower replication subsystem: the
// WAL becomes the replication log, followers become cheap read views.
//
// # Topology
//
// One primary accepts mutations; any number of followers connect to it
// over the ordinary wire protocol, bootstrap from the primary's
// sketches sealed (SHSN) at the tip of its log (a full sync), and then
// tail the primary's live WAL, applying each record through the same
// replay path crash recovery uses — a burst of records at a time,
// logged to the follower's own WAL in one batch and fsynced before the
// one acknowledgement that covers it. Followers serve queries,
// SKETCH.STATS and SKETCH.AUDIT read-only and refuse mutations; sketch
// answers are approximate by contract, so replica staleness is just
// extra sliding-window slack (a follower lagging by L inserts answers
// as a primary whose window closed L inserts ago — see the server
// docs).
//
// # Protocol
//
// The handshake rides the normal command protocol:
//
//	PING                          → +PONG
//	REPLCONF LISTENING-PORT <p>   → +OK          (advisory, for ROLE output)
//	PSYNC ?                       → +FULLRESYNC <gen> <seg> <off> <nfiles>
//	PSYNC <gen> <seg> <off>       → +CONTINUE <gen> <seg> <off>
//	                                (or +FULLRESYNC … when the cursor is gone)
//
// A replication cursor is the triple (gen, seg, off): the primary's
// checkpoint generation at that point, a WAL segment sequence number,
// and a byte offset at a record-frame boundary inside it. Segment sequences
// are globally monotonic, so (seg, off) totally orders positions; gen
// is carried for observability.
//
// +FULLRESYNC's cursor is the primary's log tip when it sealed the
// files, and its gen is informational. The primary sends nfiles sealed
// snapshot files —
//
//	SNAP <name> <size>\n<size raw bytes>\n … ENDSNAP\n
//
// — the follower loads them, makes them durable and acknowledges the
// start cursor with a REPLACK (only then does a semi-synchronous
// commit count it), and then, as after +CONTINUE, the connection
// becomes a dedicated replication channel:
//
//	primary → follower:  REC <gen> <seg> <off> <len>\n<len raw bytes>\n
//	                     PING\n                       (idle heartbeat)
//	follower → primary:  REPLACK <gen> <seg> <off> <recs> <bytes>\n
//
// Each REC carries the cursor position immediately *after* the record,
// so the follower always knows where to resume. The primary streams
// only fsync-durable bytes (the WAL tail reader is bounded by the
// synced watermark), so a follower can never hold state the primary
// would lose in a crash. A follower acknowledges only after applying —
// and, when it runs its own WAL, fsyncing — a burst (Target.ApplyBurst:
// the REC frames its reader had buffered, at most 256 KiB of payload),
// which is what makes the primary's semi-synchronous commit
// (Config.SyncReplicas) a real zero-acked-loss guarantee across
// failover. The payload is opaque here: a text line or shed's binary
// insert record, length-delimited either way.
//
// # Failover
//
// REPLICAOF NO ONE promotes a follower: replication stops and the node
// starts accepting mutations at its current position. REPLICAOF <host>
// <port> points a node at a (new) primary; it full-syncs and discards
// local state once the transfer is complete (Target.EndFullSync). A
// transfer that ends early — a cut link, a bad file, Stop — aborts
// (Target.AbortFullSync) and the node keeps the state it had. Promotion is operator-driven (or driven by an external
// watchdog); the subsystem deliberately ships no consensus layer.
package repl
