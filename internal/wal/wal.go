package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"she/internal/failfs"
	"she/internal/obs"
)

const (
	currentFile = "CURRENT"
	segPrefix   = "wal-"
	segExt      = ".seg"
	snapPrefix  = "snap-"

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 4 << 20
)

// ErrManifestCorrupt reports a CURRENT manifest that exists but fails
// validation. Guessing which snapshot generation to load would risk
// silently wrong state, so Open refuses to start; the operator must
// restore or clear the WAL directory.
var ErrManifestCorrupt = errors.New("wal: corrupt CURRENT manifest (refusing to guess)")

// ErrClosed reports use of a Log after Close.
var ErrClosed = errors.New("wal: closed")

// Options configures Open.
type Options struct {
	// FS is the filesystem to operate on; nil means the real one.
	FS failfs.FS
	// SegmentBytes is the rotation threshold (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// SyncLatency, when non-nil, records the duration of every fsync of
	// the active segment (Sync, plus the seal-sync inside rotation).
	// Fsync is where group-commit latency lives, so this is the
	// histogram to watch for ack-latency regressions.
	SyncLatency *obs.Histogram
	// AppendLatency, when non-nil, records the duration of every
	// AppendBatch, the one append call (frame encode + buffered segment
	// write, no fsync). Spikes here mean segment rotation or a stalled
	// page cache, distinct from the fsync cost SyncLatency captures.
	AppendLatency *obs.Histogram
	// CheckpointLatency, when non-nil, records the duration of each
	// successful Checkpoint (snapshot write + manifest publish +
	// cleanup).
	CheckpointLatency *obs.Histogram
}

// Recovery describes what Open found on disk. The caller loads the
// snapshot generation in SnapDir (if any), applies Records in order,
// and — whenever Records or damaged segments are present — checkpoints
// promptly so the recovered state is durable without the old files.
type Recovery struct {
	// Gen is the snapshot generation named by the manifest (0 = none).
	Gen uint64
	// SnapDir is the directory of generation Gen's snapshot files, or
	// "" when no checkpoint has happened yet.
	SnapDir string
	// Records holds every validated log record at or above the floor,
	// in append order. They alias the segment buffers Open read; the
	// caller replays them and lets them go.
	Records [][]byte
	// TornBytes counts bytes truncated from the tail of the last
	// segment — a record cut short by a crash mid-append, by definition
	// never acknowledged.
	TornBytes int64
	// CorruptSegments lists segments with a CRC failure before the
	// tail. Their valid prefix is in Records; the files are quarantined
	// to *.corrupt at the next checkpoint.
	CorruptSegments []string
	// OrphanedSegments lists segments after a corrupt one. Replaying
	// them would apply records out of order across a gap, so they are
	// excluded and parked as *.orphaned at the next checkpoint.
	OrphanedSegments []string
	// SegmentsScanned counts segment files examined.
	SegmentsScanned int
}

// Damaged reports whether recovery hit torn or corrupt data.
func (r *Recovery) Damaged() bool {
	return r.TornBytes > 0 || len(r.CorruptSegments) > 0 || len(r.OrphanedSegments) > 0
}

// Log is an append-only record log with segment rotation and
// snapshot-then-truncate checkpointing. AppendBatch and Sync are safe
// for concurrent use; Checkpoint additionally requires that the caller
// exclude concurrent appends whose effects the snapshot writer might
// miss (shed holds one mutex across a mutation's apply and append and
// across a checkpoint's snapshot and truncate).
//
// After any error that leaves on-disk state unknowable (a failed
// write or fsync of the log itself), the Log turns sticky-failed:
// every later AppendBatch/Sync/Checkpoint returns the same error
// rather than pretending durability it cannot prove.
type Log struct {
	fs       failfs.FS
	dir      string
	segBytes int64
	syncLat  *obs.Histogram // nil-safe: Observe on nil is a no-op
	chkLat   *obs.Histogram
	appLat   *obs.Histogram

	mu          sync.Mutex
	f           failfs.File
	active      uint64 // sequence number of the segment being appended
	activeBytes int64
	dirty       bool // bytes written since the last successful Sync
	since       int64
	gen         uint64
	floor       uint64
	corrupt     []string
	orphaned    []string
	failed      error

	// Replication tail-reader state (see tail.go). synced is the
	// durable watermark of the active segment: ReadFrom never exposes
	// bytes past it, so a torn or unsynced (hence unacknowledged) tail
	// can never reach a replica. segSizes records the validated length
	// of every sealed segment still on disk; retain is a floor below
	// which checkpoints may not delete segments because a replica still
	// needs them (^uint64(0) = no retention). notify is closed and
	// replaced on every successful sync, waking tailing replicas.
	synced   int64
	segSizes map[uint64]int64
	retain   uint64
	notify   chan struct{}

	// batchBuf is the reusable frame-encoding buffer for AppendBatch:
	// the whole batch is framed into it and handed to the kernel in one
	// Write per segment run, so a batch costs one lock acquisition and
	// (usually) one write syscall instead of one of each per record.
	batchBuf []byte
}

func segName(seq uint64) string     { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segExt) }
func snapDirName(gen uint64) string { return fmt.Sprintf("%s%016x", snapPrefix, gen) }

// parseSegName returns the sequence number of a segment file name, or
// ok=false for anything else (including quarantined *.corrupt files).
func parseSegName(name string) (seq uint64, ok bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segExt) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segExt)
	seq, err := strconv.ParseUint(hex, 16, 64)
	return seq, err == nil
}

func formatManifest(gen, floor uint64) []byte {
	body := fmt.Sprintf("gen=%x floor=%x", gen, floor)
	crc := crc32.Checksum([]byte(body), castagnoli)
	return []byte(fmt.Sprintf("shewal v1 %s crc=%08x\n", body, crc))
}

func parseManifest(data []byte) (gen, floor uint64, err error) {
	var crc uint32
	s := strings.TrimSuffix(string(data), "\n")
	if _, err := fmt.Sscanf(s, "shewal v1 gen=%x floor=%x crc=%08x", &gen, &floor, &crc); err != nil {
		return 0, 0, fmt.Errorf("%w: %q", ErrManifestCorrupt, s)
	}
	body := fmt.Sprintf("gen=%x floor=%x", gen, floor)
	if crc32.Checksum([]byte(body), castagnoli) != crc {
		return 0, 0, fmt.Errorf("%w: CRC mismatch", ErrManifestCorrupt)
	}
	return gen, floor, nil
}

// Open recovers the WAL directory (creating it if absent) and returns
// a Log ready to append plus what recovery found. Appends always go to
// a brand-new segment, so a weird tail on an old file can never be
// appended into.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = failfs.OS{}
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}

	var gen, floor uint64
	switch data, err := fsys.ReadFile(filepath.Join(dir, currentFile)); {
	case err == nil:
		if gen, floor, err = parseManifest(data); err != nil {
			return nil, nil, err
		}
	case errors.Is(err, fs.ErrNotExist):
		// First start: no checkpoint yet.
	default:
		return nil, nil, fmt.Errorf("wal: %w", err)
	}

	rec := &Recovery{Gen: gen}
	if gen > 0 {
		rec.SnapDir = filepath.Join(dir, snapDirName(gen))
		if _, err := fsys.Stat(rec.SnapDir); err != nil {
			return nil, nil, fmt.Errorf("wal: manifest names generation %d but %s is unreadable: %w", gen, rec.SnapDir, err)
		}
	}

	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok && !e.IsDir() && seq >= floor {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	next := floor // sequence for the fresh active segment
	var since int64
	segSizes := make(map[uint64]int64)
scan:
	for i, seq := range seqs {
		if seq >= next {
			next = seq + 1
		}
		path := filepath.Join(dir, segName(seq))
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		rec.SegmentsScanned++
		since += int64(len(data))
		last := i == len(seqs)-1
		off := 0
		for off < len(data) {
			payload, n, err := DecodeRecord(data[off:])
			if err == nil {
				rec.Records = append(rec.Records, payload)
				off += n
				continue
			}
			if errors.Is(err, errTorn) && last {
				// Crash mid-append: the partial record was never synced,
				// so never acknowledged. Cut it off.
				rec.TornBytes = int64(len(data) - off)
				if terr := fsys.Truncate(path, int64(off)); terr != nil {
					return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", segName(seq), terr)
				}
				break
			}
			// CRC failure (or a mid-stream cut, which amounts to the
			// same): keep the valid prefix, quarantine this segment at
			// the next checkpoint, and refuse to replay later segments
			// across the gap.
			rec.CorruptSegments = append(rec.CorruptSegments, segName(seq))
			for _, later := range seqs[i+1:] {
				rec.OrphanedSegments = append(rec.OrphanedSegments, segName(later))
			}
			break scan
		}
		// Validated length of this sealed segment (post torn-tail
		// truncation), so the tail reader can serve it to replicas.
		// Corrupt and orphaned segments break out above and are never
		// entered here — ReadFrom refuses them, forcing a full resync.
		segSizes[seq] = int64(off)
	}

	l := &Log{
		fs:       fsys,
		dir:      dir,
		segBytes: segBytes,
		syncLat:  opts.SyncLatency,
		chkLat:   opts.CheckpointLatency,
		appLat:   opts.AppendLatency,
		active:   next,
		since:    since,
		gen:      gen,
		floor:    floor,
		corrupt:  append([]string(nil), rec.CorruptSegments...),
		orphaned: append([]string(nil), rec.OrphanedSegments...),
		segSizes: segSizes,
		retain:   ^uint64(0),
		notify:   make(chan struct{}),
	}
	f, err := fsys.OpenFile(filepath.Join(dir, segName(l.active)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	if err := fsys.SyncDir(dir); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l.sweepLocked(entries)
	return l, rec, nil
}

// sweepLocked removes files the manifest has already superseded:
// segments below the floor (except quarantined ones, renamed at
// checkpoint), snapshot generations other than the current one, and
// temp files from interrupted atomic writes. Best-effort — anything
// left behind is retried at the next checkpoint or Open.
func (l *Log) sweepLocked(entries []fs.DirEntry) {
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(l.dir, name)
		switch {
		case e.IsDir() && strings.HasPrefix(name, snapPrefix):
			if l.gen > 0 && name == snapDirName(l.gen) {
				continue
			}
			l.removeDir(path)
		case strings.HasSuffix(name, ".tmp"):
			l.fs.Remove(path)
		default:
			if seq, ok := parseSegName(name); ok && seq < l.floor {
				l.fs.Remove(path)
			}
		}
	}
}

// removeDir deletes a directory and its immediate contents
// (generation dirs are flat) — except files Quarantine set aside: a
// snapshot recovery refused keeps its bytes, and the directory that
// holds them, after the generation is superseded.
func (l *Log) removeDir(dir string) {
	entries, err := l.fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), quarantineExt) {
			l.fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
	l.fs.Remove(dir)
}

// AppendBatch is the log's one append: every payload in order under a
// single lock acquisition, framed into a reused buffer and written with
// one Write per segment run (rotation happens between records when a
// frame would overflow the active segment). When ends is non-nil it
// must have len(payloads); ends[i] receives the cursor just past record
// i — the position a tail reader's ReadFrom reports as that record's
// End, and so the one a replica acknowledges once it has applied it.
// The records are durable — and the operations they describe may be
// acknowledged — only after a later Sync returns nil. A write error
// turns the Log sticky-failed.
func (l *Log) AppendBatch(payloads [][]byte, ends []Cursor) error {
	if len(payloads) == 0 {
		return nil
	}
	if ends != nil && len(ends) != len(payloads) {
		return fmt.Errorf("wal: AppendBatch ends has %d slots for %d payloads", len(ends), len(payloads))
	}
	for _, p := range payloads {
		if len(p) == 0 || len(p) > MaxRecordBytes {
			return fmt.Errorf("wal: record of %d bytes out of range", len(p))
		}
	}
	var start time.Time
	if l.appLat != nil {
		start = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil {
		return ErrClosed
	}
	buf := l.batchBuf[:0]
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, err := l.f.Write(buf); err != nil {
			// A partial run may be on disk; recovery truncates it as a
			// torn tail. In-process, durability is no longer provable.
			l.failed = fmt.Errorf("wal: append: %w", err)
			return l.failed
		}
		l.activeBytes += int64(len(buf))
		l.since += int64(len(buf))
		l.dirty = true
		buf = buf[:0]
		return nil
	}
	for i, p := range payloads {
		pending := l.activeBytes + int64(len(buf))
		if pending > 0 && pending+int64(recordHeaderLen+len(p)) > l.segBytes {
			if err := flush(); err != nil {
				l.batchBuf = buf[:0]
				return err
			}
			if l.activeBytes > 0 {
				if err := l.rotateLocked(); err != nil {
					l.failed = err
					l.batchBuf = buf[:0]
					return err
				}
			}
		}
		buf = EncodeRecord(buf, p)
		if ends != nil {
			ends[i] = Cursor{Gen: l.gen, Seg: l.active, Off: l.activeBytes + int64(len(buf))}
		}
	}
	err := flush()
	l.batchBuf = buf[:0]
	if err != nil {
		return err
	}
	if l.appLat != nil {
		l.appLat.Observe(time.Since(start))
	}
	return nil
}

// syncActiveLocked fsyncs the active segment, feeding the latency
// histogram when one is wired.
func (l *Log) syncActiveLocked() error {
	start := time.Now()
	err := l.f.Sync()
	l.syncLat.Observe(time.Since(start))
	return err
}

// rotateLocked seals the active segment (sync + close) and starts the
// next one. The sealed segment's full length becomes tail-readable.
func (l *Log) rotateLocked() error {
	if l.dirty {
		if err := l.syncActiveLocked(); err != nil {
			return fmt.Errorf("wal: sync before rotate: %w", err)
		}
		l.dirty = false
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	l.f = nil
	l.segSizes[l.active] = l.activeBytes
	l.active++
	f, err := l.fs.OpenFile(filepath.Join(l.dir, segName(l.active)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.f = f
	l.activeBytes = 0
	l.synced = 0
	l.notifyLocked()
	return l.fs.SyncDir(l.dir)
}

// Sync makes every appended record durable. Acknowledgements to
// clients must wait for it. A failed fsync leaves the kernel's page
// cache in an unknowable state, so the Log sticks in the failed state
// rather than risk acknowledging writes that never reached the disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil {
		return ErrClosed
	}
	if !l.dirty {
		return nil
	}
	if err := l.syncActiveLocked(); err != nil {
		l.failed = fmt.Errorf("wal: sync: %w", err)
		return l.failed
	}
	l.dirty = false
	l.synced = l.activeBytes
	l.notifyLocked()
	return nil
}

// BytesSinceCheckpoint returns the log bytes a recovery would have to
// replay — the caller's cue to Checkpoint.
func (l *Log) BytesSinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.since
}

// Checkpoint bounds the log: it rotates to a fresh segment, has
// writeSnaps write a full state snapshot into a new generation
// directory, atomically publishes the new manifest, and then deletes
// the superseded segments and generation. A crash anywhere in between
// recovers to either the old manifest (old snapshots + old log) or the
// new one (new snapshots + empty log) — never a mix.
//
// The caller must prevent concurrent appends for the duration, so the
// snapshot reflects every record below the new floor and no record
// above it. writeSnaps must write each file atomically (WriteSealed) on
// the provided filesystem.
func (l *Log) Checkpoint(writeSnaps func(dir string, fsys failfs.FS) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil {
		return ErrClosed
	}
	start := time.Now()
	if err := l.rotateLocked(); err != nil {
		l.failed = err
		return err
	}
	newFloor := l.active
	newGen := l.gen + 1
	genDir := filepath.Join(l.dir, snapDirName(newGen))
	// Snapshot-write failures are returned but not sticky: the manifest
	// is untouched, so the old state remains fully consistent and the
	// log keeps appending (it just stays longer than we'd like).
	if err := l.fs.MkdirAll(genDir, 0o755); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := writeSnaps(genDir, l.fs); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := l.fs.SyncDir(genDir); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	manifest := formatManifest(newGen, newFloor)
	if err := writeFileAtomic(l.fs, filepath.Join(l.dir, currentFile), 0o644, func(f failfs.File) error {
		_, err := f.Write(manifest)
		return err
	}); err != nil {
		return fmt.Errorf("wal: checkpoint manifest: %w", err)
	}
	l.gen, l.floor = newGen, newFloor
	l.since = l.activeBytes
	l.cleanupLocked()
	l.chkLat.Observe(time.Since(start))
	return nil
}

// cleanupLocked disposes of everything below the freshly published
// manifest: healthy old segments are deleted, damaged ones from
// recovery are renamed aside, superseded generations are removed.
// Best-effort; leftovers are swept at the next Open or Checkpoint.
func (l *Log) cleanupLocked() {
	quarantine := make(map[string]string, len(l.corrupt)+len(l.orphaned))
	for _, name := range l.corrupt {
		quarantine[name] = name + ".corrupt"
	}
	for _, name := range l.orphaned {
		quarantine[name] = name + ".orphaned"
	}
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(l.dir, name)
		switch {
		case e.IsDir() && strings.HasPrefix(name, snapPrefix):
			if name != snapDirName(l.gen) {
				l.removeDir(path)
			}
		case strings.HasSuffix(name, ".tmp"):
			l.fs.Remove(path)
		default:
			seq, ok := parseSegName(name)
			if !ok || seq >= l.floor {
				continue
			}
			if q, damaged := quarantine[name]; damaged {
				l.fs.Rename(path, filepath.Join(l.dir, q))
				delete(l.segSizes, seq)
			} else if seq >= l.retain {
				// A connected replica still needs this segment (see
				// SetRetain); keep it on disk. Recovery ignores it — it is
				// below the manifest floor — and it is deleted at a later
				// checkpoint once every replica has moved past it.
				continue
			} else {
				l.fs.Remove(path)
				delete(l.segSizes, seq)
			}
		}
	}
	l.corrupt, l.orphaned = nil, nil
	l.fs.SyncDir(l.dir)
}

// Close syncs and closes the active segment. The Log is unusable
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.dirty && l.failed == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
