package traffic

import (
	"sync"
	"sync/atomic"
	"time"
)

// Entry is one MONITOR frame: a sampled command with its origin.
type Entry struct {
	Time time.Time
	Addr string
	Verb string
	Line string // rendered command, bounded by the caller
}

// Sub is one MONITOR subscriber: a fixed-capacity frame ring
// (a buffered channel — FIFO, newest dropped when full) the consumer
// drains at its own pace. The publisher never blocks on it.
type Sub struct {
	C       <-chan Entry
	ch      chan Entry
	dropped atomic.Uint64
	hub     *Hub
}

// Dropped returns how many frames this subscriber lost to lag.
func (s *Sub) Dropped() uint64 { return s.dropped.Load() }

// Hub broadcasts sampled command frames to MONITOR subscribers.
// The subscriber count is an atomic so the no-subscriber publish path
// (the common case) is one load and out — frames are not even
// rendered then (see Tracker.Wants).
type Hub struct {
	ring    int
	subs    atomic.Int64
	dropped atomic.Uint64 // frames lost across all subscribers

	mu   sync.Mutex
	list []*Sub
}

// Subscribe attaches a new MONITOR consumer.
func (h *Hub) Subscribe() *Sub {
	s := &Sub{ch: make(chan Entry, h.ring), hub: h}
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

// Subscribers returns the attached consumer count.
func (h *Hub) Subscribers() int { return int(h.subs.Load()) }

// publish fans one frame out without ever blocking: a subscriber
// whose ring is full loses the frame, counted on both the subscriber
// and the hub. Runs only on the sampled path, and only when
// Subscribers() > 0 (callers gate on Wants).
func (h *Hub) publish(addr, verb, line string) {
	if h.subs.Load() == 0 {
		return
	}
	e := Entry{Time: time.Now(), Addr: addr, Verb: verb, Line: line}
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
