package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestWriteFloat pins the reply encoding: shortest exact decimal, never
// a truncating %.1f. A cardinality of 1234567.9 must survive the wire,
// and a fill ratio of 0.0001 must not collapse to 0.0.
func TestWriteFloat(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{0, "+0\n"},
		{1, "+1\n"},
		{1.5, "+1.5\n"},
		{0.0001, "+0.0001\n"},
		{4986.2300419, "+4986.2300419\n"},
		{1234567.9, "+1.2345679e+06\n"},
		{-2.25, "+-2.25\n"},
	}
	for _, tt := range tests {
		if got := rendered(func(w *bufio.Writer) { writeFloat(w, tt.v) }); got != tt.want {
			t.Errorf("writeFloat(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

// rendered returns what write leaves on the wire. The writer is small
// and already holds a byte, so replies longer than its free space are
// covered too.
func rendered(write func(w *bufio.Writer)) string {
	var sb strings.Builder
	w := bufio.NewWriterSize(&sb, 16)
	w.WriteByte('~')
	write(w)
	w.Flush()
	return sb.String()[1:]
}

// TestScalarRepliesMatchFmt holds the strconv-rendered scalar replies to
// the fmt verbs they replaced, byte for byte.
func TestScalarRepliesMatchFmt(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 9, 10, 127, 1 << 31, math.MaxInt64, math.MinInt64} {
		if got, want := rendered(func(w *bufio.Writer) { writeInt(w, v) }), fmt.Sprintf(":%d\n", v); got != want {
			t.Errorf("writeInt(%d) = %q, want %q", v, got, want)
		}
	}
	for _, v := range []float64{0, 0.5, 16384, 99999.99999, 1e21, 5e-324, math.MaxFloat64, math.Inf(1), math.NaN()} {
		want := fmt.Sprintf("+%s\n", strconv.FormatFloat(v, 'g', -1, 64))
		if got := rendered(func(w *bufio.Writer) { writeFloat(w, v) }); got != want {
			t.Errorf("writeFloat(%v) = %q, want %q", v, got, want)
		}
	}
	for _, v := range []string{"", "OK", "PONG", strings.Repeat("x", 100)} {
		if got, want := rendered(func(w *bufio.Writer) { writeSimple(w, v) }), fmt.Sprintf("+%s\n", v); got != want {
			t.Errorf("writeSimple(%q) = %q, want %q", v, got, want)
		}
	}
}

// TestRenderCommand: the slow-query log and MONITOR show a request line
// as sent — case and spacing kept, the line ending dropped — cut at 256
// bytes.
func TestRenderCommand(t *testing.T) {
	for line, want := range map[string]string{
		"PING": "PING", "ping\r": "ping", "  sketch.query  b\t1 \r\n": "  sketch.query  b\t1 ", "": "",
	} {
		if got := renderLine([]byte(line)); got != want {
			t.Errorf("renderLine(%q) = %q, want %q", line, got, want)
		}
	}
	long := "SKETCH.INSERT x " + strings.Repeat("k", 500)
	if got := renderLine([]byte(long)); got != long[:256]+"..." {
		t.Fatalf("long command not cut at 256 bytes: len=%d", len(got))
	}
}

func TestParseCommand(t *testing.T) {
	tests := []struct {
		name    string
		line    string
		want    Command
		wantErr bool
		errIs   error
	}{
		{name: "simple", line: "PING", want: Command{Name: "PING"}},
		{name: "lowercased name", line: "ping", want: Command{Name: "PING"}},
		{name: "crlf trimmed", line: "ping\r\n", want: Command{Name: "PING"}},
		{name: "args keep case", line: "sketch.insert Flows Alice",
			want: Command{Name: "SKETCH.INSERT", Args: []string{"Flows", "Alice"}}},
		{name: "collapses whitespace", line: "  ping \t ",
			want: Command{Name: "PING"}},
		{name: "empty", line: "", wantErr: true, errIs: ErrEmpty},
		{name: "whitespace only", line: " \t \r\n", wantErr: true, errIs: ErrEmpty},
		{name: "control byte", line: "PING\x00", wantErr: true},
		{name: "escape byte", line: "PI\x1bNG", wantErr: true},
		{name: "del byte", line: "PING\x7f", wantErr: true},
		{name: "too many args", line: "INSERT " + strings.Repeat("k ", MaxArgs), wantErr: true},
		{name: "oversized line", line: strings.Repeat("a", MaxLineBytes+1), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseCommand(tt.line)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseCommand(%q) = %+v, want error", tt.line, got)
				}
				if tt.errIs != nil && !errors.Is(err, tt.errIs) {
					t.Fatalf("ParseCommand(%q) error = %v, want %v", tt.line, err, tt.errIs)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseCommand(%q): %v", tt.line, err)
			}
			if got.Name != tt.want.Name || len(got.Args) != len(tt.want.Args) {
				t.Fatalf("ParseCommand(%q) = %+v, want %+v", tt.line, got, tt.want)
			}
			for i := range got.Args {
				if got.Args[i] != tt.want.Args[i] {
					t.Fatalf("ParseCommand(%q) = %+v, want %+v", tt.line, got, tt.want)
				}
			}
		})
	}
}

func TestParseKV(t *testing.T) {
	kv, err := ParseKV([]string{"bits=1024", "WINDOW=65536"})
	if err != nil {
		t.Fatal(err)
	}
	if kv["bits"] != "1024" || kv["window"] != "65536" {
		t.Fatalf("kv = %v", kv)
	}
	for _, bad := range [][]string{
		{"bits"},             // no '='
		{"=5"},               // empty key
		{"bits="},            // empty value
		{"bits=1", "bits=2"}, // duplicate
		{"bits=1", "BITS=2"}, // duplicate after lowering
	} {
		if _, err := ParseKV(bad); err == nil {
			t.Fatalf("ParseKV(%v) accepted", bad)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, good := range []string{"flows", "a", "shard-7.prod:eu", "A_b.c", strings.Repeat("x", 128)} {
		if !ValidName(good) {
			t.Errorf("ValidName(%q) = false", good)
		}
	}
	for _, bad := range []string{"", ".", "..", "a b", "a/b", "a\\b", "a\nb", "héllo", strings.Repeat("x", 129)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

func TestParseKeyMatchesCLI(t *testing.T) {
	if got := ParseKey("42"); got != 42 {
		t.Fatalf("ParseKey(42) = %d", got)
	}
	// Non-numeric tokens hash deterministically and distinctly.
	if ParseKey("alice") == ParseKey("bob") {
		t.Fatal("alice and bob hash to the same key")
	}
	if ParseKey("alice") != ParseKey("alice") {
		t.Fatal("ParseKey not deterministic")
	}
}

func TestNewSketchParams(t *testing.T) {
	sk, err := NewSketch("bloom", map[string]string{"bits": "65536", "window": "4096", "shards": "4"})
	if err != nil {
		t.Fatal(err)
	}
	if sk.Kind() != "bloom" || sk.Shards() != 4 {
		t.Fatalf("got kind=%s shards=%d", sk.Kind(), sk.Shards())
	}
	for _, bad := range []struct {
		kind string
		kv   map[string]string
	}{
		{"bloom", map[string]string{"bits": "0"}},
		{"bloom", map[string]string{"bits": "abc"}},
		{"bloom", map[string]string{"alpha": "-1"}},
		{"bloom", map[string]string{"registers": "64"}}, // hll param on bloom
		{"cm", map[string]string{"nope": "1"}},
		{"topk", nil},                                            // unsupported kind
		{"hll", map[string]string{"window": "2", "shards": "8"}}, // window < shards
	} {
		kv := map[string]string{}
		for k, v := range bad.kv {
			kv[k] = v
		}
		if _, err := NewSketch(bad.kind, kv); err == nil {
			t.Errorf("NewSketch(%q, %v) accepted", bad.kind, bad.kv)
		}
	}
}
