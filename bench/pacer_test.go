package main

import (
	"testing"
	"time"
)

// The schedule under a fake clock: a sender that wakes when told to.
func TestPacerSchedule(t *testing.T) {
	const us = time.Microsecond
	p := newPacer(0, 4000, 40) // one request every 250 µs, ten ms in all
	if p.due(0) != 0 || p.due(4) != 1000*us {
		t.Fatalf("due(0)=%v due(4)=%v", p.due(0), p.due(4))
	}
	now := time.Duration(0)
	sent := 0
	for wakes := 0; ; wakes++ {
		if wakes > 100 {
			t.Fatal("schedule does not end")
		}
		from, to, sleep, done := p.step(now)
		if from != sent || to < from {
			t.Fatalf("at %v: step hands out [%d,%d) after %d sent", now, from, to, sent)
		}
		for i := from; i < to; i++ {
			if p.due(i) > now {
				t.Errorf("at %v: request %d sent %v early", now, i, p.due(i)-now)
			}
		}
		if to < 40 && p.due(to) <= now {
			t.Errorf("at %v: request %d is due and was not sent", now, to)
		}
		sent = to
		if done {
			break
		}
		if sleep < minWake {
			t.Errorf("at %v: sleep %v is below the %v floor: the sender would spin", now, sleep, minWake)
		}
		now += sleep
		if wakes == 5 {
			now += 3 * time.Millisecond // the generator is held up: everything due meanwhile goes out at once
		}
	}
	if sent != 40 {
		t.Errorf("%d requests sent, want 40", sent)
	}

	// After a stall the overdue requests go out in one burst, and their
	// lateness is the distance to their own due times, not to the burst.
	p = newPacer(0, 4000, 1000)
	p.step(0)
	from, to, _, _ := p.step(5 * time.Millisecond)
	if from != 1 || to != 21 {
		t.Fatalf("after a 5 ms stall step hands out [%d,%d), want [1,21)", from, to)
	}
	if late := 5*time.Millisecond - p.due(from); late != 4750*us {
		t.Errorf("lateness of the first overdue request = %v, want 4.75ms", late)
	}

	// Faster than the wake floor: several requests per wake, never a
	// shorter sleep.
	p = newPacer(0, 32000, 320)
	_, to, sleep, _ := p.step(0)
	if to != 1 || sleep != minWake {
		t.Errorf("32000/s: first step sends %d and sleeps %v, want 1 and %v", to, sleep, minWake)
	}
	from, to, _, _ = p.step(minWake)
	if to-from != 6 {
		t.Errorf("32000/s: a wake %v later sends %d requests, want 6", minWake, to-from)
	}

	// Before the start nothing is due.
	p = newPacer(time.Second, 1000, 10)
	if from, to, sleep, _ := p.step(0); from != 0 || to != 0 || sleep != time.Second {
		t.Errorf("before start: [%d,%d) sleep %v", from, to, sleep)
	}
}
