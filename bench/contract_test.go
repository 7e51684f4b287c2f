package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// BENCHMARK.json is what a driver reads; the tables in metrics.go and
// workloads.go are what the program prints. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d exist", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: listed %q (%q), program has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	same := func(what string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d listed, %d in the program", what, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("%s %d: listed %+v, program has %s %s %s %v", what, i, m, d.Name, d.Unit, d.Better, d.Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// README.md's dictionary is these tables, row for row.
	for _, d := range endToEnd {
		if row := fmt.Sprintf("| `%s` | %s | %s | %.2f | %s |", d.Name, d.Unit, d.Better, d.Bound, d.Doc); !bytes.Contains(readme, []byte(row)) {
			t.Errorf("README.md lacks the row\n%s", row)
		}
	}
	for _, d := range perLayer {
		if row := fmt.Sprintf("| `%s` | %s | %s | %s | %s |", d.Name, d.Unit, d.Better, d.Source, d.Doc); !bytes.Contains(readme, []byte(row)) {
			t.Errorf("README.md lacks the row\n%s", row)
		}
	}
	if !seen["setup_s"] || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("contract limits: setup_s %v, %d per-layer, %d end-to-end", seen["setup_s"], len(perLayer), len(endToEnd))
	}
}
