package obs

import (
	"sync"
	"testing"
)

// TestCounterRows: a declaration reads into rows sorted by name, each
// carrying its tags and pointing at its field — an update through the
// field shows through the row, from any number of goroutines (under
// -race this is the data-race check) — and a level can go down.
func TestCounterRows(t *testing.T) {
	var decl struct {
		Shared Counter `name:"shared_total" help:"added to from every worker"`
		Level  Counter `name:"a_level" help:"goes up and down"`
	}
	rows := CounterRows(&decl)
	if len(rows) != 2 || rows[0].Name != "a_level" || rows[1].Name != "shared_total" ||
		rows[1].Help != "added to from every worker" || rows[0].C != &decl.Level {
		t.Fatalf("rows = %+v", rows)
	}
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				decl.Shared.Inc()
				rows[0].C.Add(2)
			}
		}()
	}
	wg.Wait()
	decl.Level.Add(-3)
	if got := rows[1].C.Value(); got != workers*perWorker {
		t.Errorf("shared_total = %d, want %d", got, workers*perWorker)
	}
	if got := decl.Level.Value(); got != 2*workers*perWorker-3 {
		t.Errorf("a_level = %d, want %d", got, 2*workers*perWorker-3)
	}
	decl.Level.Set(7)
	if got := rows[0].C.Value(); got != 7 {
		t.Errorf("a_level after Set = %d, want 7", got)
	}
}
