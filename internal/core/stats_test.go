package core

import "testing"

func TestBFStats(t *testing.T) {
	cfg := WindowConfig{N: 1000, Alpha: 1, Seed: 1}
	f, err := NewBF(4096, 64, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		f.Insert(uint64(i))
	}
	st := f.Stats()
	if st.N != 1000 || st.Tcycle != 2000 || st.Tick != 500 {
		t.Fatalf("window fields = %+v", st)
	}
	if st.CyclePos != 500 {
		t.Fatalf("CyclePos = %d, want 500", st.CyclePos)
	}
	if st.Cells != 4096 || st.Groups != 64 {
		t.Fatalf("geometry = %+v", st)
	}
	if st.Young+st.Perfect+st.Aged != st.Cells {
		t.Fatalf("age classes %d+%d+%d != %d cells", st.Young, st.Perfect, st.Aged, st.Cells)
	}
	ones := 0
	for j := range f.m {
		if *bfWord(f, j)&bfMask(f, j) != 0 {
			ones++
		}
	}
	if st.Filled == 0 || st.Filled != ones {
		t.Fatalf("Filled = %d, set bits = %d", st.Filled, ones)
	}
	if r := st.FillRatio(); r <= 0 || r > 1 {
		t.Fatalf("FillRatio = %v", r)
	}
	// Stats must be read-only: a second call sees identical state.
	if again := f.Stats(); again != st {
		t.Fatalf("Stats mutated state: %+v then %+v", st, again)
	}
}

func TestStatsAgeClassesSweep(t *testing.T) {
	// With one group per cell and t advancing, each cell's class walks
	// young → perfect → aged → (cleaned) young within every cycle.
	cfg := WindowConfig{N: 100, Alpha: 1, Seed: 7}
	f, err := NewBF(64, 1, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawYoung, sawPerfect, sawAged := false, false, false
	for i := 0; i < 400; i++ {
		f.Insert(uint64(i))
		st := f.Stats()
		if st.Young+st.Perfect+st.Aged != st.Cells {
			t.Fatalf("tick %d: classes don't partition cells: %+v", i, st)
		}
		sawYoung = sawYoung || st.Young > 0
		sawPerfect = sawPerfect || st.Perfect > 0
		sawAged = sawAged || st.Aged > 0
	}
	if !sawYoung || !sawPerfect || !sawAged {
		t.Fatalf("classes never all observed: young=%v perfect=%v aged=%v", sawYoung, sawPerfect, sawAged)
	}
}

func TestCMAndHLLAndGenericStats(t *testing.T) {
	cfg := WindowConfig{N: 512, Alpha: 1, Seed: 3}
	cm, err := NewCM(1024, 64, 4, 32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		cm.Insert(uint64(i % 10))
	}
	if st := cm.Stats(); st.Filled == 0 || st.Cells != 1024 || st.Tick != 100 {
		t.Fatalf("cm stats = %+v", st)
	}

	hcfg := WindowConfig{N: 4096, Alpha: 0.2, Seed: 3}
	hll, err := NewHLL(256, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		hll.Insert(uint64(i))
	}
	st := hll.Stats()
	if st.Groups != 256 || st.Cells != 256 {
		t.Fatalf("hll geometry = %+v", st)
	}
	if st.Filled == 0 || st.Young+st.Perfect+st.Aged != 256 {
		t.Fatalf("hll stats = %+v", st)
	}

	// Generic engine with a non-zero reset sentinel: an untouched array
	// counts as unfilled even though cells hold the sentinel.
	g, err := NewGeneric(CSM{
		Cells: 128, CellBits: 16, K: 2,
		Update:     func(_, y uint64) uint64 { return y + 1 },
		ResetValue: 7,
	}, WindowConfig{N: 64, Alpha: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Filled != 0 {
		t.Fatalf("fresh generic Filled = %d, want 0", st.Filled)
	}
	g.Insert(42)
	if st := g.Stats(); st.Filled == 0 {
		t.Fatalf("generic Filled still 0 after insert")
	}
}
