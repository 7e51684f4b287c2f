package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGroupClockAgesLieInCycle(t *testing.T) {
	gc := newGroupClock(16, 120, 100)
	if err := quick.Check(func(gid uint8, t64 uint64) bool {
		g := int(gid) % 16
		return gc.age(g, gc.at(t64)) < 120
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupClockAgeAdvancesWithTime(t *testing.T) {
	gc := newGroupClock(8, 200, 150)
	for gid := 0; gid < 8; gid++ {
		prev := gc.age(gid, gc.at(1000))
		for dt := uint64(1); dt < 200; dt++ {
			cur := gc.age(gid, gc.at(1000+dt))
			want := (prev + dt) % 200
			if cur != want {
				t.Fatalf("group %d: age at +%d = %d, want %d", gid, dt, cur, want)
			}
		}
	}
}

func TestGroupClockMarkFlipsOncePerCycle(t *testing.T) {
	const T = 100
	gc := newGroupClock(4, T, 80)
	for gid := 0; gid < 4; gid++ {
		flips := 0
		prev := gc.curMark(gid, gc.at(0))
		for tm := uint64(1); tm <= 3*T; tm++ {
			cur := gc.curMark(gid, gc.at(tm))
			if cur != prev {
				flips++
				if gc.age(gid, gc.at(tm)) != 0 {
					t.Fatalf("group %d: mark flipped at age %d, want 0", gid, gc.age(gid, gc.at(tm)))
				}
			}
			prev = cur
		}
		if flips != 3 {
			t.Fatalf("group %d: %d flips over 3 cycles, want 3", gid, flips)
		}
	}
}

func TestGroupClockOffsetsEvenlySpaced(t *testing.T) {
	const G = 10
	const T = 1000
	gc := newGroupClock(G, T, 800)
	// At a fixed time, the G group ages must cover [0, T) evenly: as a
	// set they are {(t − ⌊T·gid/G⌋) mod T}.
	seen := map[uint64]bool{}
	for gid := 0; gid < G; gid++ {
		seen[gc.age(gid, gc.at(5000))] = true
	}
	if len(seen) != G {
		t.Fatalf("ages collide: %d distinct of %d groups", len(seen), G)
	}
}

func TestGroupClockFreshArrayNotCleaned(t *testing.T) {
	gc := newGroupClock(8, 100, 80)
	for gid := 0; gid < 8; gid++ {
		if gc.stale(gid, gc.at(0)) {
			t.Fatalf("fresh group %d reported stale at t=0", gid)
		}
	}
}

func TestGroupClockChecksCleanExactlyOnMarkFlip(t *testing.T) {
	const T = 50
	gc := newGroupClock(1, T, 40)
	cleans := 0
	// Touch the group every tick: it must be cleaned exactly once per
	// cycle boundary.
	now := gc.at(0)
	for tm := uint64(1); tm <= 5*T; tm++ {
		// The carried clockTime of the count-based path must track at.
		if now = gc.next(now); now != gc.at(tm) {
			t.Fatalf("next drifted from at(%d): %+v vs %+v", tm, now, gc.at(tm))
		}
		if gc.stale(0, now) {
			cleans++
		}
	}
	if cleans != 5 {
		t.Fatalf("%d cleanings over 5 cycles of continuous touching, want 5", cleans)
	}
}

func TestGroupClockAliasingSkipsClean(t *testing.T) {
	// The documented 1-bit aliasing: a group untouched for exactly two
	// cycles lands on the same mark and is NOT cleaned (the §5.1
	// failure mode), while 1 or 3 cycles flip it.
	const T = 100
	gc := newGroupClock(1, T, 80)
	gc.stale(0, gc.at(10))
	if gc.stale(0, gc.at(10+2*T)) {
		t.Fatal("2-cycle gap was cleaned; 1-bit marks cannot detect it")
	}
	if !gc.stale(0, gc.at(10+3*T)) {
		t.Fatal("3-cycle gap not cleaned despite odd parity")
	}
}

func TestGroupClockMature(t *testing.T) {
	const T = 120
	const N = 100
	gc := newGroupClock(1, T, N)
	for tm := uint64(0); tm < 3*T; tm++ {
		want := gc.age(0, gc.at(tm)) >= N
		if got := gc.mature(0, gc.at(tm)); got != want {
			t.Fatalf("t=%d: mature=%v, age=%d", tm, got, gc.age(0, gc.at(tm)))
		}
	}
}

// TestGroupClockMatchesPhaseFormula holds the one-split (q, r) mark and
// age arithmetic to the formula it replaced — phase = t + 2·Tcycle −
// ⌊Tcycle·gid/G⌋, mark = (phase/Tcycle) mod 2, age = phase mod Tcycle —
// over random geometries and times up to 2⁶³, plus the cycle-boundary
// neighbourhoods where the r < offs borrow decides the answer.
func TestGroupClockMatchesPhaseFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(gc *groupClock, gid int, tm uint64) {
		t.Helper()
		phase := tm + 2*gc.T - gc.T*uint64(gid)/uint64(gc.groups())
		now := gc.at(tm)
		mark := (phase/gc.T)&1 == 1
		if got := gc.curMark(gid, now); got != mark {
			t.Fatalf("T=%d G=%d gid=%d t=%d: mark %v, phase formula %v", gc.T, gc.groups(), gid, tm, got, mark)
		}
		// stale has its own arithmetic: from either stored mark it must
		// report a mismatch exactly when there is one, and leave the
		// formula's mark (and the offset) behind.
		off := gc.off(gid)
		for _, stored := range []bool{false, true} {
			gc.setMark(gid, stored)
			if got := gc.stale(gid, now); got != (stored != mark) {
				t.Fatalf("T=%d G=%d gid=%d t=%d: stale=%v with stored mark %v, formula mark %v", gc.T, gc.groups(), gid, tm, got, stored, mark)
			}
			if gc.mark(gid) != mark || gc.off(gid) != off {
				t.Fatalf("T=%d G=%d gid=%d t=%d: stale left mark %v offset %d, want %v and %d", gc.T, gc.groups(), gid, tm, gc.mark(gid), gc.off(gid), mark, off)
			}
		}
		if got, want := gc.age(gid, now), phase%gc.T; got != want {
			t.Fatalf("T=%d G=%d gid=%d t=%d: age %d, phase formula %d", gc.T, gc.groups(), gid, tm, got, want)
		}
		if got, want := gc.mature(gid, now), phase%gc.T >= gc.N; got != want {
			t.Fatalf("T=%d G=%d gid=%d t=%d: mature %v at age %d, N=%d", gc.T, gc.groups(), gid, tm, got, phase%gc.T, gc.N)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		T := uint64(rng.Int63n(1<<uint(1+rng.Intn(40)))) + 2
		G := rng.Intn(300) + 1
		gc := newGroupClock(G, T, uint64(rng.Int63n(int64(T-1)))+1)
		for probe := 0; probe < 20; probe++ {
			gid := rng.Intn(G)
			check(gc, gid, uint64(rng.Int63n(1<<uint(1+rng.Intn(62))))) // small through ~2⁶²
			check(gc, gid, 1<<63-uint64(rng.Int63n(1<<40)))             // just under 2⁶³
			// Around a multiple of T shifted by the group's offset: the
			// ticks where the mark flips and the age wraps.
			edge := uint64(rng.Int63n(1<<20))*T + gc.off(gid)
			for d := uint64(0); d < 3; d++ {
				check(gc, gid, edge+d)
				if edge >= d {
					check(gc, gid, edge-d)
				}
			}
		}
	}
}

func TestNewGroupClockPanicsOnZeroGroups(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for G=0")
		}
	}()
	newGroupClock(0, 10, 5)
}

func TestWindowConfigValidate(t *testing.T) {
	good := WindowConfig{N: 100, Alpha: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []WindowConfig{
		{N: 0, Alpha: 1},
		{N: 100, Alpha: 0},
		{N: 100, Alpha: -1},
		{N: 100, Alpha: 1, Beta: 1.5},
		{N: 100, Alpha: 1, Beta: -0.1},
		{N: 2, Alpha: 0.1},       // Tcycle rounds to N
		{N: 1 << 62, Alpha: 1},   // Tcycle = 2^63: no room for the mark bit
		{N: 1 << 40, Alpha: 1e9}, // likewise, through alpha
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestTcycle(t *testing.T) {
	c := WindowConfig{N: 1000, Alpha: 0.2}
	if got := c.Tcycle(); got != 1200 {
		t.Fatalf("Tcycle=%d, want 1200", got)
	}
}

func TestLegalFloorDefaults(t *testing.T) {
	c := WindowConfig{N: 1000, Alpha: 0.2}
	if got := c.legalFloor(); got != 800 { // β defaults to 1−α = 0.8
		t.Fatalf("legalFloor=%d, want 800", got)
	}
	c.Beta = 0.5
	if got := c.legalFloor(); got != 500 {
		t.Fatalf("explicit beta legalFloor=%d, want 500", got)
	}
	c.Alpha, c.Beta = 3, 0
	if got := c.legalFloor(); got != 0 { // 1−α clamps at 0
		t.Fatalf("clamped legalFloor=%d, want 0", got)
	}
}

// TestGroupAgeMatchesSweepAgeOfGroupHead relates the two cleaning
// models at w>1: the lazy clock's group age equals the sweeping
// cleaner's age of the group's first cell (the sweep reaches cell
// gid·w exactly at the group's virtual cleaning time).
func TestGroupAgeMatchesSweepAgeOfGroupHead(t *testing.T) {
	const M = 512
	const w = 64
	const G = M / w
	const T = 600
	gc := newGroupClock(G, T, 500)
	sw := newSweeper(M, T, func(lo, hi int) {})
	for tm := uint64(0); tm < 2*T; tm += 7 {
		for gid := 0; gid < G; gid++ {
			if ga, ca := gc.age(gid, gc.at(tm)), sw.age(gid*w, tm); ga != ca {
				t.Fatalf("t=%d group %d: group age %d, head-cell sweep age %d", tm, gid, ga, ca)
			}
		}
	}
}
