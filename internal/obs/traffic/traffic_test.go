package traffic

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"she"
)

// TestHotKeysScaling checks that HOTKEYS estimates scale the sampled
// counts back up by the sampling rate and rank heaviest-first.
func TestHotKeysScaling(t *testing.T) {
	tr := NewTrack()
	if entries, sampled := tr.Top(0, 64); len(entries) != 0 || sampled != 0 {
		t.Fatalf("empty track = %v, %d sampled", entries, sampled)
	}
	for i := 0; i < 100; i++ {
		tr.Note([]uint64{7})
	}
	for i := 0; i < 10; i++ {
		tr.Note([]uint64{8})
	}
	entries, sampled := tr.Top(0, 64)
	if sampled != 110 || len(entries) < 2 {
		t.Fatalf("Top = %v, %d sampled", entries, sampled)
	}
	if entries[0].Key != 7 || entries[1].Key != 8 {
		t.Fatalf("ranking = %v, want key 7 then 8", entries)
	}
	// SHE-CM never undercounts over the sampled stream, so the scaled
	// estimate is at least sampled × rate.
	if entries[0].Sampled < 100 || entries[0].Count < 100*64 {
		t.Fatalf("key 7: sampled=%d count=%d, want ≥100 and ≥6400",
			entries[0].Sampled, entries[0].Count)
	}
	if entries[0].Count != entries[0].Sampled*64 {
		t.Fatalf("count %d != sampled %d × rate 64", entries[0].Count, entries[0].Sampled)
	}
	if top1, _ := tr.Top(1, 64); len(top1) != 1 || top1[0] != entries[0] {
		t.Fatalf("Top(1) = %v, want the first of %v", top1, entries)
	}
	if tr.MemoryBytes() < hotCounters*4 {
		t.Fatalf("MemoryBytes = %d, want at least %d counters of 4 bytes", tr.MemoryBytes(), hotCounters)
	}
}

// TestTrackMemoryBytes: a track counts at least what its CountMin holds
// allocated — the measure the memory budget applies to sketches — and
// its candidate heap on top; a nil track counts nothing.
func TestTrackMemoryBytes(t *testing.T) {
	cm, err := she.NewCountMin(hotCounters, she.Options{Window: hotWindow, Seed: hotSeed})
	if err != nil {
		t.Fatal(err)
	}
	if got, min := NewTrack().MemoryBytes(), int64(cm.ResidentBytes()); got <= min {
		t.Fatalf("MemoryBytes = %d, want more than the CountMin's %d resident bytes", got, min)
	}
	if got := (*Track)(nil).MemoryBytes(); got != 0 {
		t.Fatalf("nil track MemoryBytes = %d", got)
	}
}

// TestMonitorHubDrops checks the bounded-feed contract: a subscriber
// that never drains loses frames past its buffer — counted, not blocked.
func TestMonitorHubDrops(t *testing.T) {
	var hub Hub
	if hub.Wants() {
		t.Fatal("Wants true with no subscribers")
	}
	sub := hub.Subscribe()
	defer hub.Unsubscribe(sub)
	if !hub.Wants() {
		t.Fatal("Wants false with a subscriber")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Publishes must complete promptly even though nobody reads.
		for i := 0; i < monitorRing+100; i++ {
			hub.Publish("1.2.3.4:5", fmt.Sprintf("PING %d", i))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a lagging subscriber")
	}
	if got := sub.Dropped(); got != 100 {
		t.Fatalf("sub dropped %d, want 100 (buffer %d of %d)", got, monitorRing, monitorRing+100)
	}
	if got := hub.Dropped(); got != 100 {
		t.Fatalf("hub dropped %d, want 100", got)
	}
	// The buffer still holds the first frames, in order.
	for i := 0; i < monitorRing; i++ {
		e := <-sub.C
		if e.Line != fmt.Sprintf("PING %d", i) || e.Addr != "1.2.3.4:5" {
			t.Fatalf("frame %d = %+v", i, e)
		}
	}
}

// TestMonitorUnsubscribeCloses checks that Unsubscribe closes the
// channel (the feed loop's exit signal) and publishes keep working.
func TestMonitorUnsubscribeCloses(t *testing.T) {
	var hub Hub
	sub := hub.Subscribe()
	hub.Unsubscribe(sub)
	if _, ok := <-sub.C; ok {
		t.Fatal("channel not closed after Unsubscribe")
	}
	hub.Publish("a", "PING") // must not panic
	if hub.Wants() {
		t.Fatal("Wants true after last unsubscribe")
	}
}

// TestClientsRegistry covers Register/List/Find/Totals/Unregister and
// the per-verb accounting.
func TestClientsRegistry(t *testing.T) {
	reg := NewClients([]string{"PING", "SKETCH.INSERT", "OTHER"})
	c1 := reg.Register("10.0.0.1:101", nil)
	c2 := reg.Register("10.0.0.2:102", nil)
	if reg.Count() != 2 {
		t.Fatalf("Count = %d", reg.Count())
	}
	c1.Command(0) // PING
	c1.Command(0)
	c1.BatchSettle([]uint64{0, 3, 0}, 1, 42)
	c1.SetName("ingest")
	c2.SetReplica()

	rows := reg.List()
	if len(rows) != 2 || rows[0].ID >= rows[1].ID {
		t.Fatalf("List = %+v", rows)
	}
	r1 := rows[0]
	if r1.Addr != "10.0.0.1:101" || r1.Name != "ingest" {
		t.Fatalf("row 1 = %+v", r1)
	}
	if r1.VerbCounts["PING"] != 2 || r1.VerbCounts["SKETCH.INSERT"] != 3 {
		t.Fatalf("per-verb = %v", r1.VerbCounts)
	}
	if r1.Cmds != 5 || r1.Keys != 42 || r1.Batches != 1 {
		t.Fatalf("totals = %+v", r1)
	}
	if !rows[1].Replica {
		t.Fatal("replica flag lost")
	}
	if reg.Find("10.0.0.2:102") != c2 {
		t.Fatal("Find missed")
	}
	if reg.Find("10.9.9.9:1") != nil {
		t.Fatal("Find invented a client")
	}
	reg.Unregister(c1)
	if reg.Count() != 1 {
		t.Fatalf("Count after Unregister = %d", reg.Count())
	}
}

// TestCountConn checks byte accounting through the net.Conn wrapper and
// that the registry hands back the connection it was given.
func TestCountConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	reg := NewClients(nil)
	c := reg.Register("pipe", a)
	wrapped := CountConn(a, c)
	go func() {
		buf := make([]byte, 16)
		b.Read(buf)
		b.Write([]byte("pong!"))
	}()
	wrapped.Write([]byte("ping"))
	buf := make([]byte, 16)
	n, _ := wrapped.Read(buf)
	rows := reg.List()
	if len(rows) != 1 || rows[0].BytesOut != 4 || rows[0].BytesIn != int64(n) {
		t.Fatalf("rows = %+v, want out=4 in=%d", rows, n)
	}
	// The registry lists the raw connection, the one a shutdown closes.
	if conns := reg.Conns(); len(conns) != 1 || conns[0] != a {
		t.Fatalf("Conns = %v, want the registered pipe end", conns)
	}
}

// TestTrackerConcurrency hammers a hot-key track, the MONITOR hub
// and the client registry from many goroutines at once; run under
// -race this is the wait-free claim's regression test.
func TestTrackerConcurrency(t *testing.T) {
	var (
		hot = NewTrack()
		hub Hub
	)
	clients := NewClients([]string{"A", "B"})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := clients.Register(fmt.Sprintf("c%d", g), nil)
			defer clients.Unregister(c)
			for i := 0; i < 2000; i++ {
				if i%2 == 0 { // the lines a 1-in-2 sampler picks
					hot.Note([]uint64{uint64(i % 17)})
					if hub.Wants() {
						hub.Publish("x", "A 1")
					}
				}
				c.Command(i % 2)
			}
		}(g)
	}
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sub := hub.Subscribe()
			hot.Top(0, 2)
			clients.List()
			hub.Unsubscribe(sub)
		}
	}()
	wg.Wait()
	close(stop)
	<-churnDone
}
