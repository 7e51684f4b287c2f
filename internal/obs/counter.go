package obs

import (
	"reflect"
	"sort"
	"sync/atomic"
)

// Counter is an int64 operational counter, safe for concurrent use.
// The zero value is ready. Negative deltas and Set are allowed, so a
// Counter doubles as a gauge (active connections, WAL bytes awaiting
// the next checkpoint) — which is why PromWriter exports it Untyped.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which may be negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Set stores v, for a counter that tracks a level.
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterRow is one declared counter as the listing surfaces see it.
type CounterRow struct {
	Name string // as INFO and /debug/vars spell it; /metrics prefixes she_
	Help string // one line: what an increment means
	C    *Counter
}

// CounterRows reads a counter declaration — a pointer to a struct of
// Counter fields, each tagged `name:"…" help:"…"` — into rows sorted by
// name. The struct is the one declaration: update sites name a field,
// listing surfaces loop over the rows, and a counter that exists is
// listed, at zero, before its first increment. Called once per
// declaration, at construction; a field that is not a Counter is a
// malformed declaration and panics there.
func CounterRows(decl any) []CounterRow {
	v := reflect.ValueOf(decl).Elem()
	rows := make([]CounterRow, v.NumField())
	for i := range rows {
		tag := v.Type().Field(i).Tag
		rows[i] = CounterRow{Name: tag.Get("name"), Help: tag.Get("help"), C: v.Field(i).Addr().Interface().(*Counter)}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}
