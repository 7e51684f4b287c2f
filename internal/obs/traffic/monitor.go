package traffic

import (
	"sync"
	"sync/atomic"
	"time"

	"she/internal/obs"
)

// Sub is one MONITOR subscriber: a fixed-capacity frame buffer
// (a buffered channel — FIFO, newest dropped when full) the consumer
// drains at its own pace. The publisher never blocks on it. A frame
// is an obs.Command with its Time, Addr and Line set.
type Sub struct {
	C       <-chan obs.Command
	ch      chan obs.Command
	dropped atomic.Uint64
	hub     *Hub
}

// Dropped returns how many frames this subscriber lost to lag.
func (s *Sub) Dropped() uint64 { return s.dropped.Load() }

// Hub broadcasts sampled command frames to MONITOR subscribers; the
// zero value has none. The subscriber count is an atomic so the
// no-subscriber path (the common case) is one load and out — frames
// are not even rendered then (see Wants).
type Hub struct {
	subs    atomic.Int64
	dropped atomic.Uint64 // frames lost across all subscribers

	mu   sync.Mutex
	list []*Sub
}

// Subscribe attaches a new MONITOR consumer.
func (h *Hub) Subscribe() *Sub {
	s := &Sub{ch: make(chan obs.Command, monitorRing), hub: h}
	s.C = s.ch
	h.mu.Lock()
	h.list = append(h.list, s)
	h.mu.Unlock()
	h.subs.Add(1)
	return s
}

// Unsubscribe detaches a consumer; its channel is closed so a
// draining loop terminates.
func (h *Hub) Unsubscribe(s *Sub) {
	h.mu.Lock()
	for i, cur := range h.list {
		if cur == s {
			h.list = append(h.list[:i], h.list[i+1:]...)
			h.subs.Add(-1)
			close(s.ch)
			break
		}
	}
	h.mu.Unlock()
}

// Dropped returns the total frames lost to lagging consumers.
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

// Wants reports whether a Publish would reach anyone, so call sites
// can skip rendering the frame when no MONITOR is attached.
func (h *Hub) Wants() bool { return h.subs.Load() > 0 }

// Publish fans one sampled command frame out without ever blocking: a
// subscriber whose buffer is full loses the frame, counted on both the
// subscriber and the hub. Call only on the sampled path, after Wants —
// rendering line costs.
func (h *Hub) Publish(addr, line string) {
	e := obs.Command{Time: time.Now(), Addr: addr, Line: line}
	h.mu.Lock()
	for _, s := range h.list {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}
