package server

import (
	"runtime"
	"testing"
)

// TestResidentBytesMatchHeap: the figure -max-memory budgets is what
// the process holds for a sketch. For the three sketches of bench/'s
// geometry it is held to the heap bytes the runtime says their creation
// allocated (within 5 %: allocation size classes and a few hundred
// bytes of structs per shard are the difference; TotalAlloc, because
// what earlier tests left behind may be freed meanwhile), while
// MemoryBits stays the paper's payload figure — one mark bit a group,
// Table 2 — to the bit.
func TestResidentBytesMatchHeap(t *testing.T) {
	heap := func() int64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.TotalAlloc)
	}
	var keep []*Sketch
	var resident int64
	before := heap()
	for _, tc := range []struct {
		kind        string
		kv          map[string]string
		memoryBits  int   // cells + one mark bit a group
		minResident int64 // what the issue measured the process to hold
	}{
		{"bloom", map[string]string{"bits": "4194304"}, 4194304 + 65536, 1 << 20},
		{"cm", map[string]string{"counters": "262144"}, 262144*32 + 4096, 1<<20 + 32<<10},
		{"hll", map[string]string{"registers": "16384"}, 16384*5 + 16384, 130 << 10},
	} {
		tc.kv["window"], tc.kv["shards"] = "1048576", "8"
		sk, err := NewSketch(tc.kind, tc.kv)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, sk)
		if got := sk.MemoryBits(); got != tc.memoryBits {
			t.Errorf("%s: MemoryBits = %d, want the payload figure %d", tc.kind, got, tc.memoryBits)
		}
		if got := int64(sk.ResidentBytes()); got < tc.minResident || got > 2*tc.minResident {
			t.Errorf("%s: ResidentBytes = %d, want at least %d and the same order", tc.kind, got, tc.minResident)
		}
		resident += int64(sk.ResidentBytes())
	}
	held := heap() - before
	if diff := float64(resident-held) / float64(held); diff < -0.05 || diff > 0.05 {
		t.Errorf("ResidentBytes total %d, creating them allocated %d: %.1f %% apart, want within 5 %%", resident, held, 100*diff)
	}
	t.Logf("resident %d B, heap %d B", resident, held)
	runtime.KeepAlive(keep)
}
