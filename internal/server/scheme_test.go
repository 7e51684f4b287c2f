package server

// A snapshot whose cells were placed under position scheme 1 ("SHE1")
// holds every key where this build no longer looks for it. These tests
// offer one — testdata/scheme1_*.snap at the repository root, written
// by the last scheme-1 commit — to each route a snapshot enters shed
// by, and require the refusal that names both schemes (the library's
// own Unmarshal* route is TestScheme1SnapshotRefused in the root
// package).

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"she/internal/core"
)

// scheme1File returns a scheme-1 snapshot as the last scheme-1 shed
// stored one: the library's sharded snapshot behind the server envelope
// (an insert counter of 0), sealed.
func scheme1File(t testing.TB, kind string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scheme1_"+kind+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	return seal(append(append([]byte(envelopeMagic), envelopeVersion, 0, 0, 0, 0, 0, 0, 0, 0), data...))
}

var schemeText = core.ErrHashScheme.Error()

// lockedBuffer collects a server's log lines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestScheme1Load: SKETCH.LOAD of a scheme-1 file answers -ERR with the
// scheme error and changes nothing in the registry — neither the name
// asked for nor a sketch already there.
func TestScheme1Load(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{SnapshotDir: dir})
	c := dial(t, s.Addr().String())
	c.must("SKETCH.CREATE b bloom bits=4096 window=1024 shards=2", "+OK")
	c.must("SKETCH.INSERT b 7", ":1")
	for _, name := range []string{"b", "fresh"} {
		if err := os.WriteFile(filepath.Join(dir, "old.she"), scheme1File(t, "bloom"), 0o644); err != nil {
			t.Fatal(err)
		}
		reply, ok := c.try("SKETCH.LOAD " + name + " old")
		if !ok || !strings.HasPrefix(reply, "-ERR ") || !strings.Contains(reply, schemeText) {
			t.Fatalf("SKETCH.LOAD %s of a scheme-1 file = %q, want -ERR with %q", name, reply, schemeText)
		}
	}
	c.must("SKETCH.QUERY b 7", ":1")
	if got := s.Registry().List(); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("registry after the refused loads holds %d sketches, want only b", len(got))
	}
}

// TestScheme1Checkpoint: a WAL directory, or an autosave directory,
// whose checkpoint holds a scheme-1 snapshot takes the path of any
// other unusable checkpoint file — warned about, counted, quarantined
// with its bytes intact, its sketch absent — and the rest of recovery
// goes on: the sketch beside it and the records after it.
func TestScheme1Checkpoint(t *testing.T) {
	walDir, autoDir := t.TempDir(), t.TempDir()
	s1 := startServer(t, Config{WALDir: walDir, AutosaveDir: autoDir})
	c := dial(t, s1.Addr().String())
	c.must("SKETCH.CREATE old bloom bits=4096 window=1024 shards=2", "+OK")
	c.must("SKETCH.CREATE kept cm counters=1024 window=1024 shards=2", "+OK")
	c.must("SKETCH.INSERT kept 5 5 5", ":3")
	if err := s1.checkpoint(true, nil); err != nil {
		t.Fatal(err)
	}
	if err := s1.saveAutosaves(); err != nil {
		t.Fatal(err)
	}
	c.must("SKETCH.INSERT kept 5", ":1")
	c.must("SKETCH.INSERT old 9", ":1")
	s1.Abort()
	snapDirs, err := filepath.Glob(filepath.Join(walDir, "snap-*"))
	if err != nil || len(snapDirs) != 1 {
		t.Fatalf("snapshot generations after a checkpoint: %q, %v", snapDirs, err)
	}
	snapDir := snapDirs[0]

	old := scheme1File(t, "bloom")
	for _, tc := range []struct {
		cfg  Config
		dir  string // where the checkpoint's files are
		want string // kept's count of key 5 after recovery
	}{
		{Config{WALDir: walDir}, snapDir, ":4"}, // three from the checkpoint, one replayed
		{Config{AutosaveDir: autoDir}, autoDir, ":3"},
	} {
		if err := os.WriteFile(filepath.Join(tc.dir, "old.she"), old, 0o644); err != nil {
			t.Fatal(err)
		}
		var logs lockedBuffer
		tc.cfg.Listen, tc.cfg.Logger = "127.0.0.1:0", slog.New(slog.NewTextHandler(&logs, nil))
		s2 := New(tc.cfg)
		if err := s2.Start(); err != nil {
			t.Fatalf("a scheme-1 checkpoint file must not prevent startup: %v", err)
		}
		defer s2.Abort()
		if _, err := s2.Registry().Get("old"); err == nil {
			t.Fatal("the scheme-1 snapshot was loaded")
		}
		if got := s2.Counters()["snapshots_quarantined"]; got != 1 {
			t.Fatalf("snapshots_quarantined = %d, want 1", got)
		}
		if l := logs.String(); !strings.Contains(l, "snapshot unusable") || !strings.Contains(l, "position scheme 1") {
			t.Fatalf("no %q warning naming the scheme in the log:\n%s", "snapshot unusable", l)
		}
		if kept, err := os.ReadFile(filepath.Join(tc.dir, "old.she.corrupt")); err != nil || !bytes.Equal(kept, old) {
			t.Fatalf("the refused file was not preserved as old.she.corrupt: %v", err)
		}
		dial(t, s2.Addr().String()).must("SKETCH.QUERY kept 5", tc.want)
		// The insert into the refused sketch is a record for a sketch
		// that is not there: skipped, as after any quarantined
		// checkpoint file.
		if got := s2.Counters()["wal_replay_skipped"]; tc.cfg.WALDir != "" && got != 1 {
			t.Fatalf("wal_replay_skipped = %d, want 1", got)
		}
	}
}

// TestScheme1FullSync: a follower offered a scheme-1 file in a full
// sync fails that sync with the scheme error, holds no sketch from it,
// and comes back on its usual backoff.
func TestScheme1FullSync(t *testing.T) {
	primary := fullSyncPrimary(t, 1, "b", scheme1File(t, "bloom"))
	var logs lockedBuffer
	follower := startServer(t, Config{
		WALDir: t.TempDir(), ReplicaOf: primary,
		ReplRetryInterval: 10 * time.Millisecond, ReplMaxRetryInterval: 20 * time.Millisecond,
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
	})
	deadline := time.Now().Add(10 * time.Second)
	for follower.follower.Status().Reconnects < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the follower did not retry after the refused sync; its log:\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := follower.follower.Status()
	if st.FullSyncs != 0 || st.ConsecutiveFailures < 2 {
		t.Fatalf("follower status %+v: want no completed full sync and a failure per attempt", st)
	}
	if l := logs.String(); !strings.Contains(l, "position scheme 1") {
		t.Fatalf("the follower's log does not carry the scheme error:\n%s", l)
	}
	if got := follower.Registry().List(); len(got) != 0 {
		t.Fatalf("follower registry holds %d sketches after a refused sync", len(got))
	}
}
