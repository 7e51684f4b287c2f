package main

import (
	"syscall"
	"time"
)

// minWake is the shortest sleep a sender takes. A sender that spins,
// or wakes every few microseconds, takes a core from shed on a two-core
// box and so changes the latency it is there to measure; one that wakes
// at most 5000 times a second and sends everything then due does not.
const minWake = 200 * time.Microsecond

// pacer is an open-loop schedule: request i is due at start + i·interval
// whatever happened to the requests before it. It holds no clock, so a
// test can drive it with any sequence of instants.
type pacer struct {
	start    time.Duration // instants are offsets from an arbitrary epoch
	interval time.Duration
	total    int // requests in the schedule
	next     int // first request not yet sent
}

func newPacer(start time.Duration, rate float64, total int) *pacer {
	return &pacer{start: start, interval: time.Duration(float64(time.Second) / rate), total: total}
}

// due is the instant request i should be sent, the instant its latency
// is clocked from.
func (p *pacer) due(i int) time.Duration { return p.start + time.Duration(i)*p.interval }

// step is one wake-up at instant now: requests [from, to) are due and
// are to be sent at once, then the sender sleeps for sleep. done is true
// once the whole schedule has been handed out.
func (p *pacer) step(now time.Duration) (from, to int, sleep time.Duration, done bool) {
	from = p.next
	if now >= p.start {
		p.next = min(int((now-p.start)/p.interval)+1, p.total)
	}
	to = p.next
	if to == p.total {
		return from, to, 0, true
	}
	return from, to, max(p.due(to)-now, minWake), false
}

// pause blocks the calling thread for d in nanosleep(2). time.Sleep
// will not do for a sender: below a millisecond the Go runtime parks an
// idle thread in epoll_wait, whose timeout is whole milliseconds, so a
// 250 µs sleep returns after about 1.1 ms and every request goes out a
// millisecond late. nanosleep wakes within the kernel's 50 µs timer
// slack and, unlike spinning, leaves the core to shed meanwhile. A
// signal may cut it short; the schedule then finds nothing due and
// pauses again.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
