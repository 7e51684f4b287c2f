package server

// Durability tests: an acknowledged mutation survives an abrupt kill
// (Abort, which writes nothing, like kill -9), a filesystem that crashes
// at any operation, a torn or corrupt log segment and a graceful
// restart; a failed fsync withholds the ack; a corrupt snapshot never
// loads; a snapshot file holds the format's bytes, streamed one shard at
// a time; and a panic costs one connection, not the node.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"she"
	"she/internal/failfs"
	"she/internal/wal"
)

// TestWALSurvivesAbort: every acknowledged mutation survives an abrupt
// kill (Abort — no drain, no shutdown checkpoint) purely via the log.
func TestWALSurvivesAbort(t *testing.T) {
	dir := t.TempDir()
	s1 := startWAL(t, dir, nil, 0)
	c := dial(t, s1.Addr().String())
	c.must("SKETCH.CREATE flows cm counters=1024 window=65536 shards=2", "+OK")
	c.must("SKETCH.CREATE seen bloom bits=4096 window=65536 shards=2", "+OK")
	for i := 0; i < 200; i++ {
		c.must(fmt.Sprintf("SKETCH.INSERT flows %d", 5000+i), ":1")
	}
	c.must("SKETCH.INSERT seen 42 43 44", ":3")
	c.must("SKETCH.DROP seen", "+OK")
	s1.Abort()

	s2 := startWAL(t, dir, nil, 0)
	if _, err := s2.Registry().Get("seen"); err == nil {
		t.Fatal("acked DROP was lost: sketch still present after recovery")
	}
	sk, err := s2.Registry().Get("flows")
	if err != nil {
		t.Fatalf("acked sketch missing after recovery: %v", err)
	}
	if n := sk.Inserts(); n != 200 {
		t.Fatalf("recovered insert counter = %d, want 200", n)
	}
	for i := 0; i < 200; i++ {
		if v, _ := sk.Query(uint64(5000 + i)); v < 1 {
			t.Fatalf("acked key %d lost after recovery", 5000+i)
		}
	}
	if got := s2.Counters()["wal_replayed_records"]; got == 0 {
		t.Fatal("expected replayed records after an abort, got 0")
	}
}

// crashScript runs a fixed script on a node whose filesystem is fsys,
// logging to dir, until the filesystem crashes under it. It reports
// whether the node acknowledged the script's SKETCH.CREATE of flows and
// which keys it acknowledged inserting there.
type crashScript func(t *testing.T, fsys failfs.FS, dir string) (created bool, acked []uint64)

// crashSweep is the end-to-end fault-injection loop. A probe run on a
// healthy filesystem counts the script's filesystem operations, at least
// 40, and must acknowledge all keys. Then the filesystem crashes at each
// operation in turn — mid log append, mid fsync, mid checkpoint rename,
// everywhere — and a node recovering from the surviving directory on the
// real filesystem must hold the acknowledged sketch and answer every
// acknowledged key, with at most slack inserts beyond them: what was in
// flight when the filesystem died.
func crashSweep(t *testing.T, script crashScript, keys int, slack uint64) {
	probe := failfs.NewFault(failfs.OS{})
	if created, acked := script(t, probe, t.TempDir()); !created || len(acked) != keys {
		t.Fatalf("probe run incomplete: create=%v acked=%d, want %d", created, len(acked), keys)
	}
	total := probe.Steps()
	if total < 40 {
		t.Fatalf("suspiciously few fault points: %d", total)
	}
	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		fault := failfs.NewFault(failfs.OS{})
		fault.CrashAt(k)
		created, acked := script(t, fault, dir)
		if !fault.Crashed() {
			t.Fatalf("crash at step %d never fired", k)
		}
		if !created && len(acked) > 0 {
			t.Fatalf("crash at step %d: inserts acked without an acked create", k)
		}
		// The crashed process is gone; only the directory survives.
		s := New(Config{Listen: "127.0.0.1:0", WALDir: dir})
		if err := s.Start(); err != nil {
			t.Fatalf("crash at step %d: recovery failed: %v", k, err)
		}
		sk, err := s.Registry().Get("flows")
		if created && err != nil {
			t.Fatalf("crash at step %d: acked sketch missing: %v", k, err)
		}
		for _, key := range acked {
			if v, _ := sk.Query(key); v < 1 {
				t.Fatalf("crash at step %d: acked key %d lost", k, key)
			}
		}
		if sk != nil {
			if n := sk.Inserts(); n < uint64(len(acked)) || n > uint64(len(acked))+slack {
				t.Fatalf("crash at step %d: recovered %d inserts, acked %d (+ at most %d in flight)", k, n, len(acked), slack)
			}
		}
		s.Abort()
	}
}

// walCrashScript sends a fixed command script over TCP: a CREATE, then
// twelve single-key inserts. A vanished connection or an error reply
// stops it.
func walCrashScript(t *testing.T, fsys failfs.FS, dir string) (created bool, acked []uint64) {
	s := New(Config{Listen: "127.0.0.1:0", WALDir: dir, CheckpointBytes: 256, FS: fsys})
	if err := s.Start(); err != nil {
		return false, nil // crashed during recovery/startup
	}
	defer s.Abort()
	c := dial(t, s.Addr().String())
	if reply, ok := c.try("SKETCH.CREATE flows cm counters=512 window=65536 shards=1"); !ok || reply != "+OK" {
		return false, nil
	}
	for i := 0; i < 12; i++ {
		key := uint64(1000 + i)
		if reply, ok := c.try(fmt.Sprintf("SKETCH.INSERT flows %d", key)); !ok || reply != ":1" {
			return true, acked
		}
		acked = append(acked, key)
	}
	return true, acked
}

// TestWALCrashAtEveryFSOperation runs the crash sweep over a WAL node
// serving clients: at most the one insert in flight, which the script
// stops at, can exceed the acknowledged set.
func TestWALCrashAtEveryFSOperation(t *testing.T) {
	crashSweep(t, walCrashScript, 12, 1)
}

// TestRecoveryCheckpoint: recovery checkpoints at once when it found
// damage — a torn tail it cut, a corrupt segment the checkpoint sets
// aside — and otherwise leaves the log to the size threshold. Either
// way a second kill and recovery answers what the first recovery did,
// without a checkpoint.
func TestRecoveryCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name        string
		damage      func(seg []byte) []byte
		ctr         string // the damage's own counter
		checkpoints int64  // at the first recovery
	}{
		{"clean", nil, "", 0},
		{"torn-tail", func(b []byte) []byte { return append(b, 0x10, 0, 0) }, "wal_torn_bytes", 1},
		{"corrupt", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, "wal_segments_quarantined", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := startWAL(t, dir, nil, 0)
			c := dial(t, s.Addr().String())
			c.must("SKETCH.CREATE flows cm counters=1024 window=65536 shards=2", "+OK")
			c.must("SKETCH.INSERT flows 7 7 8", ":3")
			s.Abort()
			if tc.damage != nil {
				segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
				if err != nil || len(segs) != 1 {
					t.Fatalf("segments %v (%v), want one", segs, err)
				}
				data, err := os.ReadFile(segs[0])
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(segs[0], tc.damage(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var first string
			for restart, want := range []int64{tc.checkpoints, 0} {
				s := startWAL(t, dir, nil, 0)
				if got := s.Counters()["checkpoints"]; got != want {
					t.Errorf("recovery %d: checkpoints = %d, want %d", restart+1, got, want)
				}
				if restart == 0 && tc.ctr != "" && s.Counters()[tc.ctr] == 0 {
					t.Errorf("%s = 0 after the damage", tc.ctr)
				}
				answer, _ := dial(t, s.Addr().String()).try("SKETCH.QUERY flows 7")
				if restart == 0 {
					first = answer
				} else if answer != first {
					t.Errorf("the second recovery answers %q, the first %q", answer, first)
				}
				s.Abort()
			}
			if tc.damage == nil && first != ":2" {
				t.Errorf("a clean recovery answers %q, want :2", first)
			}
			if q, _ := filepath.Glob(filepath.Join(dir, "*.seg.corrupt")); tc.name == "corrupt" && len(q) != 1 {
				t.Errorf("quarantined segments %v, want the corrupt one", q)
			}
		})
	}
}

// TestSnapshotCorruptEveryOffset flips bits at every byte offset of a
// sealed snapshot — and truncates it at every length — and asserts the
// loader always fails cleanly: no panic, no silently loaded sketch.
func TestSnapshotCorruptEveryOffset(t *testing.T) {
	sk, err := NewSketch("cm", map[string]string{"counters": "64", "window": "128", "shards": "1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sk.Insert(uint64(i))
	}
	payload, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sealed := seal(payload)
	if _, err := parseSnapshot(sealed); err != nil {
		t.Fatalf("pristine snapshot failed to load: %v", err)
	}
	for off := 0; off < len(sealed); off++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), sealed...)
			mut[off] ^= bit
			if got, err := parseSnapshot(mut); err == nil {
				t.Fatalf("bit %#02x flipped at offset %d loaded silently as a %s sketch", bit, off, got.Kind())
			}
		}
	}
	for n := 0; n < len(sealed); n++ {
		if _, err := parseSnapshot(sealed[:n]); err == nil {
			t.Fatalf("snapshot truncated to %d bytes loaded silently", n)
		}
	}
}

// TestSnapshotFileBytes: the file writeSketchFile writes for each kind
// from a fixed stream is byte for byte testdata/sealed_<kind>.she. The
// bytes are the format, whichever code lays them down; -update-golden
// rewrites them, which only a format change may do.
func TestSnapshotFileBytes(t *testing.T) {
	dir := t.TempDir()
	keys := make([]uint64, 3000)
	for i := range keys {
		keys[i] = uint64(i*i) % 1999
	}
	for i := range kinds {
		k := &kinds[i]
		sk, err := NewSketch(k.name, map[string]string{
			k.size: strconv.FormatUint(k.def/64, 10), "window": "1024", "shards": "2", "seed": "7"})
		if err != nil {
			t.Fatal(err)
		}
		sk.InsertBatch(keys, nil)
		path := filepath.Join(dir, k.name+snapshotExt)
		if _, err := writeSketchFile(failfs.OS{}, path, sk, nil); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", "sealed_"+k.name+snapshotExt)
		if *updateGolden {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: writeSketchFile wrote %d bytes that differ from the %d of %s", k.name, len(got), len(want), golden)
		}
		if back, err := parseSnapshot(want); err != nil || back.Inserts() != uint64(len(keys)) || back.Kind() != k.name {
			t.Errorf("%s: %s does not load back to the sketch it was written from: %v", k.name, golden, err)
		}
	}
}

// TestSnapshotWriteAllocs: a snapshot file streams from a buffer that
// holds one shard at a time. At the benchmark's geometry (8 shards) a
// write allocates no more than an eighth of the file's length, a tenth
// of that again, and 4 KiB for the file handle and paths.
func TestSnapshotWriteAllocs(t *testing.T) {
	dir := t.TempDir()
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for _, create := range []string{"bloom bits=4194304", "cm counters=262144", "hll registers=16384"} {
		f := strings.Fields(create)
		kv, err := ParseKV(append(f[1:], "window=1048576", "shards=8"))
		if err != nil {
			t.Fatal(err)
		}
		sk, err := NewSketch(f[0], kv)
		if err != nil {
			t.Fatal(err)
		}
		sk.InsertBatch(keys, nil)
		path := filepath.Join(dir, f[0]+snapshotExt)
		// The least of three writes: a goroutine another test left behind
		// may allocate during one of them.
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := writeSketchFile(failfs.OS{}, path, sk, nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if limit := uint64(st.Size())/8*11/10 + 4096; least > limit {
			t.Errorf("%s: writing a %d-byte file allocated %d bytes (%.1f×), want at most %d",
				f[0], st.Size(), least, float64(least)/float64(st.Size()), limit)
		}
	}
}

// TestSnapshotStreamByteEqual: a file streamed one shard at a time
// holds exactly the bytes sealSketch renders in one buffer, and loads
// back, for every kind at 1, 3 and 8 shards: empty, after inserts, and
// after a jump of several cleaning cycles. One buffer serves every
// write, as the checkpoint's does, so a buffer grown by a larger sketch
// is reused by a smaller one.
func TestSnapshotStreamByteEqual(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	for i := range kinds {
		k := &kinds[i]
		for _, shards := range []int{1, 3, 8} {
			sk, err := NewSketch(k.name, map[string]string{
				k.size: strconv.FormatUint(k.def/16, 10), "window": "1024", "shards": strconv.Itoa(shards), "seed": "3"})
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct {
				what string
				keys int
			}{{"empty", 0}, {"after inserts", 700}, {"after a multi-cycle jump", 6 * 1024 * shards}} {
				keys := make([]uint64, step.keys)
				for j := range keys {
					keys[j] = uint64(j) * 0x9e3779b97f4a7c15
				}
				sk.InsertBatch(keys, nil)
				want, err := sealSketch(sk)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, k.name+snapshotExt)
				if buf, err = writeSketchFile(failfs.OS{}, path, sk, buf); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, %d shards, %s: streamed file (%d bytes) differs from sealSketch's %d", k.name, shards, step.what, len(got), len(want))
				}
				if back, err := parseSnapshot(got); err != nil || !bytes.Equal(mustMarshal(t, back), mustMarshal(t, sk)) {
					t.Fatalf("%s, %d shards, %s: streamed file does not load back: %v", k.name, shards, step.what, err)
				}
			}
		}
	}
}

// TestCheckpointAllocatesNoSketchCopy: a checkpoint streams each sketch
// into its file through the one encode buffer it keeps, so once that
// buffer has grown a checkpoint of the benchmark's three sketches (1.6
// MB of snapshot) allocates no more than 64 KiB.
func TestCheckpointAllocatesNoSketchCopy(t *testing.T) {
	s := startWAL(t, t.TempDir(), nil, 0)
	c := dial(t, s.Addr().String())
	for _, create := range []string{"b bloom bits=4194304", "c cm counters=262144", "h hll registers=16384"} {
		c.must("SKETCH.CREATE "+create+" window=1048576 shards=8", "+OK")
		c.must("SKETCH.INSERT "+create[:1]+" 1 2 3", ":3")
	}
	if err := s.checkpoint(true, nil); err != nil {
		t.Fatal(err)
	}
	// The least of three: a goroutine the server or another test runs
	// may allocate during one of them.
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		c.must("SKETCH.INSERT c 4 5", ":2")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.checkpoint(true, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 64<<10 {
		t.Errorf("a steady-state checkpoint allocated %d bytes, want at most %d", least, 64<<10)
	}
}

// seal returns payload sealed as a snapshot file is: the envelope's
// header reserved ahead of a copy of it, then filled in.
func seal(payload []byte) []byte {
	return wal.Seal(append(make([]byte, wal.SealHeader), payload...))
}

// TestAutosaveQuarantine: each unusable file in the autosave directory —
// corrupt, junk, or an unsealed payload, which no shed that can read
// this format ever wrote — is quarantined to *.corrupt and counted; the
// healthy file still loads and the server still starts.
func TestAutosaveQuarantine(t *testing.T) {
	dir := t.TempDir()
	mk := func(counters string) *Sketch {
		sk, err := NewSketch("cm", map[string]string{"counters": counters, "window": "128", "shards": "1"})
		if err != nil {
			t.Fatal(err)
		}
		sk.Insert(7)
		return sk
	}
	if _, err := writeSketchFile(failfs.OS{}, filepath.Join(dir, "good.she"), mk("64"), nil); err != nil {
		t.Fatal(err)
	}
	unsealed, err := mk("64").MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old.she"), unsealed, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := seal(unsealed)
	bad[len(bad)-1] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, "bad.she"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.she"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Listen: "127.0.0.1:0", AutosaveDir: dir})
	if err := s.Start(); err != nil {
		t.Fatalf("a corrupt autosave file must not prevent startup: %v", err)
	}
	defer s.Abort()
	if _, err := s.Registry().Get("good"); err != nil {
		t.Fatalf("healthy snapshot not loaded: %v", err)
	}
	for _, name := range []string{"old", "bad", "junk"} {
		if _, err := s.Registry().Get(name); err == nil {
			t.Fatalf("corrupt snapshot %q was loaded", name)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".she.corrupt")); err != nil {
			t.Fatalf("quarantine file for %q: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".she")); err == nil {
			t.Fatalf("corrupt original %q.she left in place", name)
		}
	}
	if got := s.Counters()["snapshots_quarantined"]; got != 3 {
		t.Fatalf("snapshots_quarantined = %d, want 3", got)
	}
}

// TestPanicRecoveredPerConnection: a panic inside command execution
// costs that client its connection (after an -ERR) but leaves the
// daemon and other connections serving.
func TestPanicRecoveredPerConnection(t *testing.T) {
	testPanic = func(cmd Command) {
		if cmd.Name == "SKETCH.CARD" && len(cmd.Args) == 1 && cmd.Args[0] == "panic-trigger" {
			panic("injected test panic")
		}
	}
	defer func() { testPanic = nil }()

	// The fast path has no hook to inject through, and needs none: a
	// sketch with a nil structure behind it dereferences nil in the batch
	// apply (insert) and in the query kernel (query).
	const nilDeref = "-ERR internal error: runtime error: invalid memory address or nil pointer dereference"
	for _, tc := range []struct {
		name, cmd, want string
		cfg             Config
	}{
		{"slow", "SKETCH.CARD panic-trigger", "-ERR internal error: injected test panic", Config{}},
		{"fast-insert", "SKETCH.INSERT hollow 7", nilDeref, Config{}},
		{"fast-insert-wal", "MINSERT hollow 7 8", nilDeref, Config{WALDir: t.TempDir()}},
		{"fast-query", "SKETCH.QUERY hollow 7", nilDeref, Config{MaxInflight: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, tc.cfg)
			s.reg.Put("hollow", &Sketch{row: lookupKind("bloom"), structure: (*she.ShardedBloomFilter)(nil)})
			c1 := dial(t, s.Addr().String())
			c1.must("PING", "+PONG")
			c1.must(tc.cmd, tc.want)
			if _, ok := c1.try("PING"); ok {
				t.Fatal("connection stayed open after a recovered panic")
			}
			// The daemon keeps serving — with MaxInflight 1 only if the
			// dead connection gave its admission slot back, with a WAL
			// only if it let go of the log's ordering lock.
			c2 := dial(t, s.Addr().String())
			c2.must("PING", "+PONG")
			c2.must("SKETCH.CREATE ok bloom bits=1024 window=1024 shards=1", "+OK")
			c2.must("SKETCH.INSERT ok 7", ":1")
			c2.must("SKETCH.QUERY ok 7", ":1")
			if tc.cfg.WALDir != "" {
				s.reg.Drop("hollow") // it cannot be snapshotted either
				if err := s.checkpoint(true, nil); err != nil {
					t.Fatalf("checkpoint after a recovered panic: %v", err)
				}
			}
			if got := s.Counters()["panics_recovered"]; got != 1 {
				t.Fatalf("panics_recovered = %d, want 1", got)
			}
		})
	}
}

// TestWALSyncFailureFailStop: an fsync error on the log withholds the
// batch's acknowledgements — the client gets a direct error and a
// closed connection — and the failure is sticky, so later batches fail
// the same way instead of pretending durability.
func TestWALSyncFailureFailStop(t *testing.T) {
	fault := failfs.NewFault(failfs.OS{})
	s := startWAL(t, t.TempDir(), fault, 0)

	c1 := dial(t, s.Addr().String())
	c1.must("SKETCH.CREATE d bloom bits=1024 window=1024 shards=1", "+OK")
	fault.FailSyncs(1)
	reply, ok := c1.try("SKETCH.INSERT d 7")
	if !ok || !strings.HasPrefix(reply, "-ERR wal sync failed") {
		t.Fatalf("insert across failed fsync = %q (ok=%v), want withheld ack + error", reply, ok)
	}
	if _, ok := c1.try("PING"); ok {
		t.Fatal("connection survived a failed commit")
	}

	c2 := dial(t, s.Addr().String())
	reply, ok = c2.try("SKETCH.INSERT d 8")
	if !ok || !strings.HasPrefix(reply, "-ERR") {
		t.Fatalf("mutation after sticky log failure = %q (ok=%v), want error", reply, ok)
	}
	if got := s.Counters()["wal_errors"]; got < 2 {
		t.Fatalf("wal_errors = %d, want >= 2", got)
	}
}

// TestShutdownCheckpointTruncatesLog: a graceful shutdown checkpoints,
// so the next start recovers from snapshots alone — zero records to
// replay and a single (fresh) segment on disk.
func TestShutdownCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s1 := startWAL(t, dir, nil, 4096)
	c := dial(t, s1.Addr().String())
	c.must("SKETCH.CREATE flows cm counters=1024 window=65536 shards=2", "+OK")
	for i := 0; i < 300; i++ {
		c.must(fmt.Sprintf("SKETCH.INSERT flows %d", i), ":1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s1.Counters()["checkpoints"]; got == 0 {
		t.Fatal("no checkpoint ran despite CheckpointBytes=4096 and shutdown")
	}

	segs := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("%d segments on disk after shutdown checkpoint, want 1", segs)
	}

	s2 := startWAL(t, dir, nil, 4096)
	if got := s2.Counters()["wal_replayed_records"]; got != 0 {
		t.Fatalf("replayed %d records after graceful shutdown, want 0", got)
	}
	sk, err := s2.Registry().Get("flows")
	if err != nil {
		t.Fatal(err)
	}
	if n := sk.Inserts(); n != 300 {
		t.Fatalf("recovered insert counter = %d, want 300", n)
	}
	for i := 0; i < 300; i++ {
		if v, _ := sk.Query(uint64(i)); v < 1 {
			t.Fatalf("key %d lost across graceful restart", i)
		}
	}
}

// BenchmarkServerInsertWAL is BenchmarkServerInsert with durability on:
// same pipelining client, every batch commits through a WAL fsync.
func BenchmarkServerInsertWAL(b *testing.B) {
	s := startWAL(b, b.TempDir(), nil, 0)

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64*1024)
	w := bufio.NewWriterSize(conn, 64*1024)
	fmt.Fprintf(w, "SKETCH.CREATE bench bloom bits=1048576 window=1048576 shards=8\n")
	w.Flush()
	if reply, err := r.ReadString('\n'); err != nil || reply != "+OK\n" {
		b.Fatalf("CREATE = %q, %v", reply, err)
	}

	const batch = 256
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := batch
		if rem := b.N - done; rem < n {
			n = rem
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "SKETCH.INSERT bench %d\n", done+i)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			reply, err := r.ReadString('\n')
			if err != nil || !strings.HasPrefix(reply, ":") {
				b.Fatalf("reply = %q, %v", reply, err)
			}
		}
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inserts/sec")
}
