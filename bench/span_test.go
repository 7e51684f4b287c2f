package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100, Calls: 10},
		{ID: 2, Parent: 1, Name: "parse", Start: 10, End: 30, Calls: 10},
		{ID: 3, Parent: 1, Name: "insert", Start: 25, End: 60, Calls: 10}, // overlaps parse by 5
		{ID: 4, Parent: 3, Name: "lock", Start: 30, End: 40, Calls: 10},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // sticks out of the parent by 20
		{ID: 6, Name: "request", Start: 200, End: 250, Calls: 5},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (20 + 30 + 10), // children cover [10,60) and [90,100)
		2: 20,
		3: 35 - 10,
		4: 10,
		5: 30,
		6: 50,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	ns, calls := selfByName(spans)
	if ns["request"] != 40+50 || calls["request"] != 15 {
		t.Errorf("request: %d ns over %d calls, want 90 over 15", ns["request"], calls["request"])
	}
}

func TestProbeRecordsOneSpanPerBatch(t *testing.T) {
	rec := newRecorder()
	calls := 0
	perCall := rec.probe("layer.fn", 4096, 1024, func(lo, hi int) { calls += hi - lo })
	if calls != 4096 || len(rec.spans) != 4 || perCall < 0 {
		t.Fatalf("%d calls, %d spans, %g ns per call", calls, len(rec.spans), perCall)
	}
	for _, s := range rec.spans {
		if s.Name != "layer.fn" || s.Calls != 1024 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
}
