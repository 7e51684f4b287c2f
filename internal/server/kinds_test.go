package server

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"she"
)

// TestKindTable takes every row of the kind table over the wire through
// what a kind has to do — create at its default size and at a given one,
// insert, answer its own verb and refuse the other by name, save, load,
// answer the same, be audited as the row says — and holds the texts that
// list the kinds to the rows. A row added tomorrow is exercised here
// without an edit.
func TestKindTable(t *testing.T) {
	s := startServer(t, Config{SnapshotDir: t.TempDir(), AuditSample: 1})
	c := dial(t, s.Addr().String())
	get := func(name string) *Sketch {
		t.Helper()
		sk, err := s.reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}

	var names []string
	for i := range kinds {
		names = append(names, kinds[i].name)
	}
	list := strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
	c.must("SKETCH.CREATE x nosuchkind", fmt.Sprintf(`-ERR unknown sketch kind "nosuchkind" (want %s)`, list))
	var cardKinds []string
	for i := range kinds {
		if kinds[i].card != nil {
			cardKinds = append(cardKinds, kinds[i].name)
		}
	}
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}

	for i := range kinds {
		k := &kinds[i]
		if (k.query == nil) == (k.card == nil) {
			t.Errorf("%s: a kind answers SKETCH.QUERY or SKETCH.CARD, one of them", k.name)
		}
		if lookupKind(k.name) != k || k.name != strings.ToLower(k.name) {
			t.Errorf("%s: lookupKind does not find the row, or the name is not lower-case", k.name)
		}
		line := regexp.MustCompile(fmt.Sprintf(`(?m)^        %s +\w+ +%s=N +\(default %d\)$`, k.name, k.size, k.def))
		if !line.Match(doc) {
			t.Errorf("%s: the README's SKETCH.CREATE entry has no line for the kind with %s=N (default %d)", k.name, k.size, k.def)
		}

		dflt, sized, loaded := k.name+"-default", k.name+"-sized", k.name+"-loaded"
		c.must(fmt.Sprintf("SKETCH.CREATE %s %s", dflt, strings.ToUpper(k.name)), "+OK")
		c.must(fmt.Sprintf("SKETCH.CREATE %s %s %s=%d window=1024 shards=2", sized, k.name, k.size, k.def/4), "+OK")
		c.must(fmt.Sprintf("SKETCH.CREATE x %s %s=%d", k.name, k.size, k.max+1),
			fmt.Sprintf("-ERR %s=%d exceeds maximum %d", k.size, k.max+1, k.max))
		if d, z := get(dflt).Stats().Cells, get(sized).Stats().Cells; d <= z || z == 0 {
			t.Errorf("%s: %d cells at the default %s, %d at a quarter of it", k.name, d, k.size, z)
		}

		keys := " 7 7"
		for key := 100; key < 200; key++ {
			keys += " " + strconv.Itoa(key)
		}
		c.must("MINSERT "+sized+keys, ":102")
		ask, other, refusal := "SKETCH.QUERY "+sized+" 7", "SKETCH.CARD "+sized,
			fmt.Sprintf("-ERR %s does not estimate cardinality; use %s", k.name, strings.Join(cardKinds, " or "))
		if k.card != nil {
			ask, other, refusal = other, ask, fmt.Sprintf("-ERR %s answers SKETCH.CARD, not SKETCH.QUERY", k.name)
		}
		answer, _ := c.try(ask)
		if v, err := strconv.ParseFloat(strings.TrimLeft(answer, ":+"), 64); err != nil || v < 1 {
			t.Errorf("%s: %s = %q after the inserts", k.name, ask, answer)
		}
		c.must(other, refusal)

		c.must("SKETCH.SAVE "+sized, "+OK")
		c.must("SKETCH.LOAD "+loaded+" "+sized, "+OK")
		c.must(strings.Replace(ask, sized, loaded, 1), answer)
		for _, name := range []string{sized, loaded} {
			sk := get(name)
			if a := sk.Audit(); a == nil || a.Snapshot().Kind != k.audit {
				t.Errorf("%s: %s is not audited as %v", k.name, name, k.audit)
			}
			snap, err := sk.structure.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if tag, err := she.ShardedSnapshotKind(snap); err != nil || tag != k.name || sk.Kind() != k.name {
				t.Errorf("%s: %s's snapshot is tagged %q (%v), the sketch says %q", k.name, name, tag, err, sk.Kind())
			}
		}
	}
}

// statsCounter is a structure that counts its Stats calls: a scan of
// every cell under the shard locks.
type statsCounter struct {
	structure
	scans atomic.Int64
}

func (c *statsCounter) Stats() she.SketchStats {
	c.scans.Add(1)
	return c.structure.Stats()
}

// TestListingsWithoutCellStatsScanNoCells: SKETCH.LIST, SKETCH.AUDIT *
// and /debug/vars show no cell statistics, so they scan no sketch's
// cells; SKETCH.LIST's window is fixed when the sketch is built.
func TestListingsWithoutCellStatsScanNoCells(t *testing.T) {
	s := startServer(t, Config{DebugListen: "127.0.0.1:0", AuditSample: 1})
	st, err := kinds[0].build(4096, 2, she.Options{Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	sk := &Sketch{structure: st, row: &kinds[0]}
	sk.attachAudit(s.reg.audit) // probes the bloom filter itself
	counted := &statsCounter{structure: st}
	sk.structure = counted
	if err := s.reg.Add("x", sk); err != nil {
		t.Fatal(err)
	}
	counted.scans.Store(0)
	c := dial(t, s.Addr().String())
	if got := c.array("SKETCH.AUDIT *"); len(got) != 1 {
		t.Fatalf("SKETCH.AUDIT * = %q", got)
	}
	if got := c.array("SKETCH.LIST"); len(got) != 1 || !strings.HasPrefix(got[0], "x kind=bloom shards=2 ") {
		t.Fatalf("SKETCH.LIST = %q", got)
	}
	if body, _ := fetch(t, "http://"+s.DebugAddr().String()+"/debug/vars"); !strings.Contains(body, `"x":{"kind":"bloom","shards":2`) {
		t.Fatalf("/debug/vars does not list x: %s", body)
	}
	if n := counted.scans.Load(); n != 0 {
		t.Errorf("SKETCH.LIST, SKETCH.AUDIT * and /debug/vars scanned the cells %d times, want 0", n)
	}
}
