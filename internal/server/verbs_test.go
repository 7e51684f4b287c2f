package server

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"she/internal/obs"
)

// TestVerbTable holds the command table to the invariants the loop and
// the fast path lean on.
func TestVerbTable(t *testing.T) {
	seen := map[string]bool{}
	for vi := range verbs {
		v := &verbs[vi]
		if v.name == "" || v.name != strings.ToUpper(v.name) || seen[v.name] {
			t.Errorf("row %d: name %q is empty, not upper-case or taken", vi, v.name)
		}
		seen[v.name] = true
		if got := lookupVerb(v.name); got != vi {
			t.Errorf("lookupVerb(%q) = %d, want %d", v.name, got, vi)
		}
		if vi == verbOther {
			continue
		}
		if v.run == nil {
			t.Errorf("%s has no handler", v.name)
		}
		if v.usage != v.name && !strings.HasPrefix(v.usage, v.name+" ") {
			t.Errorf("%s: usage %q does not start with the verb", v.name, v.usage)
		}
		if (v.min > 0 || v.max > 0) && v.usage == v.name {
			t.Errorf("%s bounds its arguments and names none in its usage", v.name)
		}
		if v.max > 0 && v.max < v.min {
			t.Errorf("%s: max %d < min %d", v.name, v.max, v.min)
		}
		if v.flags&vMutates != 0 && v.flags&vWriteGate == 0 {
			t.Errorf("%s mutates and a replica would not refuse it", v.name)
		}
		if v.flags&vTakeover != 0 && v.flags&vNoAdmit == 0 {
			t.Errorf("%s takes the connection over and would keep an admission slot", v.name)
		}
	}
	if verbs[verbOther].name != "OTHER" || verbOther != len(verbs)-1 || verbs[verbOther].run != nil {
		t.Errorf("OTHER must be the last row and have no handler")
	}
	for _, name := range []string{"", "ping", "NOSUCH", "SKETCH.NOPE"} {
		if got := lookupVerb(name); got != verbOther {
			t.Errorf("lookupVerb(%q) = %d, want OTHER", name, got)
		}
	}

	// The scanner's own arity limits are the rows': a line is the fast
	// path's exactly when its argument count is one the row accepts.
	for _, vi := range []int{verbInsert, verbMinsert, verbQuery, verbCard} {
		v := &verbs[vi]
		for n := 0; n < MaxArgs; n++ {
			line := []byte(strings.ToLower(v.name) + strings.Repeat(" 7", n))
			want := n >= v.min && (v.max == 0 || n <= v.max)
			if got, _, _, ok := scanLine(line, nil); ok != want || ok && got != vi {
				t.Errorf("%s with %d arguments: scanLine = %d, %v; the row says %v", v.name, n, got, ok, want)
			}
		}
	}
}

// reference holds one list of a reference document to the table it
// documents: what entry captures between from and to in file, spelled
// by tmpl (a regexp template: "$1"), must be exactly want.
func reference(t *testing.T, file, from, to string, entry *regexp.Regexp, tmpl string, want []string) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, text, ok := strings.Cut(string(data), from)
	if !ok {
		t.Fatalf("%s: no %q", file, from)
	}
	text, _, _ = strings.Cut(text, to)
	var got []string
	for _, m := range entry.FindAllStringSubmatchIndex(text, -1) {
		got = append(got, string(entry.ExpandString(nil, tmpl, text, m)))
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("%s lists\n%s\nthe table declares\n%s", file, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestVerbReference: the README's verb reference names exactly the
// table's verbs, each headed by the table's usage string.
func TestVerbReference(t *testing.T) {
	var want []string
	for _, v := range verbs[:verbOther] {
		want = append(want, v.usage)
	}
	slices.Sort(want)
	reference(t, "../../README.md", "### Verb reference", "\n```\n\n", regexp.MustCompile(`(?m)^([A-Z][A-Z.]+( .*)?)$`), "$1", want)
}

// TestCounterReference: the README's operational-counter table names
// exactly the declared counters, each with the help line of its
// declaration. The names are in the Prometheus alphabet as declared,
// so no surface sanitises them.
func TestCounterReference(t *testing.T) {
	var want []string
	alphabet := regexp.MustCompile(`^[a-z][a-z_]*$`)
	for _, r := range obs.CounterRows(new(counters)) {
		if !alphabet.MatchString(r.Name) || r.Help == "" {
			t.Errorf("counter %q: the name is outside [a-z_], or there is no help line", r.Name)
		}
		want = append(want, "she_"+r.Name+" "+r.Help)
	}
	reference(t, "../../README.md", "| Counter | Meaning |", "\n\n", regexp.MustCompile("(?m)^  \\| `(she_\\w+)` \\| (.*) \\|$"), "$1 $2", want)
}

// TestMetricReference: the README's family table names exactly the
// families an armed node and its replica emit (testdata/armed.golden,
// which TestArmedSurface holds to a live scrape), less the operational
// counters, which have their own table.
func TestMetricReference(t *testing.T) {
	data, err := os.ReadFile("testdata/armed.golden")
	if err != nil {
		t.Fatal(err)
	}
	counter := map[string]bool{}
	for _, r := range obs.CounterRows(new(counters)) {
		counter["she_"+r.Name] = true
	}
	var want []string
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(string(data), -1) {
		if !counter[m[1]] && !slices.Contains(want, m[1]) {
			want = append(want, m[1])
		}
	}
	slices.Sort(want)
	// A family is named in a row's first cell: at the row's start or
	// after a comma.
	reference(t, "../../README.md", "| Family | Type | Meaning |", "\n\n", regexp.MustCompile("(?m)(?:^  \\| |, )`((?:she|go)_\\w+)"), "$1", want)
}
