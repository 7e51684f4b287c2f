// Package wal gives shed crash-safe durability: an append-only log of
// applied mutations plus checksummed, atomically-replaced snapshot
// files, combined through a manifest so that recovery after kill -9 or
// power loss restores exactly the acknowledged state.
//
// # Layout
//
// A WAL directory contains:
//
//	CURRENT               manifest: latest snapshot generation + segment floor
//	snap-<gen>/*.she      sealed snapshot files for generation <gen>
//	wal-<seq>.seg         log segments, replayed in sequence order
//	*.corrupt, *.orphaned segments excluded from replay (kept for forensics)
//
// Records are length-prefixed and CRC32C-checked (see record.go);
// snapshot files carry their own sealed envelope (see seal.go). The
// CURRENT manifest is a one-line checksummed file replaced atomically,
// LevelDB-style: it names the snapshot generation to load and the
// first log segment ("floor") whose records postdate that snapshot.
//
// The log does not look inside a record. shed logs SKETCH.CREATE and
// SKETCH.DROP as the text lines a client sent and an insert as a binary
// insert record — a tag byte no text line begins with, the sketch
// name, 8 little-endian bytes a key — one per sketch per batch, which a
// compile-time bound keeps under MaxRecordBytes
// (internal/server/insertrecord.go, DESIGN.md §9). Framing, CRC and
// everything below are the same for both. A decimal MINSERT line, which
// an older binary logged for an insert, is refused by name at replay.
//
// There is one append call, AppendBatch: one record or many, one lock
// hold, and on request each record's end cursor — the position a
// replica acknowledges once it holds that record, which is what a
// semi-synchronous commit waits for. Records are durable after Sync.
//
// # Recovery
//
// Open scans segments at or above the floor in order. A torn tail —
// a partial record at the end of the last segment, the signature of a
// crash mid-append — is truncated away; its bytes were never
// acknowledged (acknowledgement requires a successful Sync), so
// nothing durable is lost. A CRC failure anywhere else is corruption:
// the valid record prefix is still replayed, the damaged segment is
// quarantined to *.corrupt at the next checkpoint, and later segments
// are set aside as *.orphaned rather than replayed out of order.
// Callers should checkpoint immediately after a recovery that
// replayed records, making the recovered state durable again without
// the damaged files.
//
// # Checkpoint
//
// Checkpoint implements snapshot-then-truncate: rotate to a fresh
// segment, write every snapshot into a new generation directory, fsync
// it, atomically publish the new CURRENT, and only then delete the old
// generation and the segments below the new floor. Each snapshot file
// streams through WriteSealed: a temporary file gets the header's bytes
// reserved, then the payload in as many writes as the caller makes
// (shed's: one a shard), then the header at offset 0, then fsync,
// rename and a directory fsync. A crash at any
// point leaves either the old manifest (old snapshots + old segments
// intact) or the new one (new snapshots + empty log) — never a
// half-state. The caller must hold off concurrent appends for the
// duration; shed holds its one ordering lock (ordMu) so a checkpoint
// observes a log position consistent with the snapshot it writes.
//
// All file I/O goes through failfs.FS, so the fault-injection tests in
// this package crash the sequence at every single mutating operation
// and prove the recovered state never loses an acknowledged record.
package wal
