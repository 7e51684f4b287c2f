package server

// Differential tests of the fast path's line scanner. The reference is
// built from what the slow path runs — ParseCommand, ParseKey — plus the
// fast path's stated refusals, so the scanner is held to "the same
// tokens, the same keys, and a decline exactly where the contract says".

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"she/internal/wal"
)

// refScan is what ScanLine must return for line, from the slow path's
// own parser.
func refScan(line []byte) (verb string, name string, keys []uint64, ok bool) {
	for _, c := range line {
		if c >= 0x7f || c < 0x20 && !strings.ContainsRune(" \t\v\f\r", rune(c)) {
			return "", "", nil, false
		}
	}
	cmd, err := ParseCommand(string(line))
	if err != nil || len(cmd.Args) == 0 {
		return "", "", nil, false
	}
	nkeys := len(cmd.Args) - 1
	switch cmd.Name {
	case "MINSERT", "SKETCH.INSERT":
		ok = nkeys >= 1
	case "SKETCH.QUERY":
		ok = nkeys == 1
	case "SKETCH.CARD":
		ok = nkeys == 0
	}
	if !ok {
		return "", "", nil, false
	}
	for _, tok := range cmd.Args[1:] {
		keys = append(keys, ParseKey(tok))
	}
	return cmd.Name, cmd.Args[0], keys, true
}

// checkScan holds ScanLine to refScan on one line: the same decision,
// verb, name and keys, appended behind what the caller already had and
// returned untouched on a decline. It returns the scanner's verdict.
func checkScan(t testing.TB, line []byte) (string, bool) {
	t.Helper()
	const sentinel = 0xfeedface
	verb, name, keys, ok := ScanLine(line, []uint64{sentinel})
	wverb, wname, wkeys, wok := refScan(line)
	if ok != wok {
		t.Fatalf("ScanLine(%q) ok=%v, the reference says %v", line, ok, wok)
	}
	if len(keys) == 0 || keys[0] != sentinel || !ok && len(keys) != 1 {
		t.Fatalf("ScanLine(%q) ok=%v returned keys %v over a one-key prefix", line, ok, keys)
	}
	if verb != wverb || string(name) != wname || !slices.Equal(keys[1:], wkeys) {
		t.Fatalf("ScanLine(%q) = %s %q %v, want %s %q %v", line, verb, name, keys[1:], wverb, wname, wkeys)
	}
	return verb, ok
}

// scanSeps are the five separators, with the pairs a CRLF client and a
// sloppy one produce.
var scanSeps = []string{" ", "\t", "\v", "\f", "\r", "  ", " \t\r "}

// TestScanDigitRuns walks digit runs of every length 1…24 across every
// offset modulo 8, ending the line (so the last word is the overlapping
// load of fewer than 8 bytes), ending at each separator, and followed
// by another token.
func TestScanDigitRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	fill := func(n int, lead byte) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = '0' + byte(rng.Intn(10))
		}
		if lead != 0 {
			b[0] = lead
		}
		return string(b)
	}
	for n := 1; n <= 24; n++ {
		for pad := 1; pad <= 8; pad++ {
			for _, digits := range []string{
				fill(n, 0), fill(n, '0'), fill(n, '1'), fill(n, '9'),
				strings.Repeat("9", n), strings.Repeat("0", n),
			} {
				head := "MINSERT b" + strings.Repeat(" ", pad)
				checkScan(t, []byte(head+digits))
				checkScan(t, []byte("SKETCH.QUERY c"+strings.Repeat("\t", pad)+digits))
				for _, sep := range scanSeps {
					checkScan(t, []byte(head+digits+sep))
					checkScan(t, []byte(head+digits+sep+"7"))
					checkScan(t, []byte(head+"5"+sep+digits+sep+"x"+sep+digits))
				}
			}
		}
	}
}

// scanEdgeTokens sit at the edges of what strconv.ParseUint accepts and
// of what the fast path may claim; they also seed
// FuzzFastParseEquivalence.
var scanEdgeTokens = []string{
	"0", "00", "7", "18446744073709551615", "18446744073709551616", "18446744073709551614",
	"99999999999999999999", "10000000000000000000", "09999999999999999999",
	"000018446744073709551615", "000018446744073709551616", "0000000000000000000000001",
	"184467440737095516150", "1844674407370955161", "28446744073709551615",
	"+5", "-1", "1.5", "12a", "a12", "1_000", "0x10", "१२", "12345678/", "12345678:",
	"1234567/", "1234567:", "/", ":", "12345678a", "1234567812345678z",
	"123\x0145", "123\x8045", "123\xff", "\x7f", "12345\x7f", "123\x0045", "1234567\n8", "~", "!",
}

// TestScanEdges runs the edge tokens at every alignment, first, last
// and alone on a line, then a byte of every value in every position of
// a word, then whole lines at the edges of the four verbs' shapes.
func TestScanEdges(t *testing.T) {
	for _, tok := range scanEdgeTokens {
		for pad := 1; pad <= 8; pad++ {
			sp := strings.Repeat(" ", pad)
			checkScan(t, []byte("MINSERT b"+sp+tok))
			checkScan(t, []byte("sketch.insert b"+sp+tok+" 42"))
			checkScan(t, []byte("MINSERT b 42"+sp+tok+"\r"))
			checkScan(t, []byte("SKETCH.QUERY b"+sp+tok))
		}
	}
	// A byte of every value at every position of an otherwise all-digit
	// word: the neighbours of '0'…'9', the separators, the control and
	// high-bit bytes the fast path must not claim.
	for c := 0; c < 256; c++ {
		for pos := 0; pos < 8; pos++ {
			word := []byte("12345678")
			word[pos] = byte(c)
			checkScan(t, []byte("MINSERT b "+string(word)+" 9"))
			checkScan(t, []byte("MINSERT b 1234567812345678"+string(word)))
		}
	}
	for _, line := range []string{
		"", " ", "MINSERT", "MINSERT b", "MINSERT b ", "minsert  b\t1", "\r MINSERT b 1", "MINSERTb 1 2",
		"SKETCH.CARD h", "SKETCH.CARD h ", "SKETCH.CARD h 1", "SKETCH.CARD", "sketch.card\th\r",
		"SKETCH.QUERY b", "SKETCH.QUERY b 1 2", "SKETCH.QUERY b 1 ", "SKETCH.QUERY b 1\x01",
		"SKETCH.INSERT b 1", "SKETCH.INSERTS b 1", "PING", "SKETCH.CREATE b bloom", "MINSERT caf\xc3\xa9 1",
		"MINSERT b\x00 1", "MINSERT\x0bb\x0c1", "M\x01NSERT b 1",
		"MINSERT b" + strings.Repeat(" 7", MaxArgs-2), "MINSERT b" + strings.Repeat(" 7", MaxArgs-1),
		"MINSERT b" + strings.Repeat(" 18446744073709551615", MaxArgs-1),
	} {
		checkScan(t, []byte(line))
	}
}

// scanLongRuns are the runs scanUint converts in straight-line code
// when 24 bytes of line follow their start: 16–23 digits, with and
// without leading zeros, around the largest uint64; they also seed
// FuzzFastParseEquivalence.
var scanLongRuns = []string{
	"1234567890123456", "12345678901234567", "999999999999999999", "1844674407370955161",
	"18446744073709551615", "18446744073709551616", "99999999999999999999", "00000000000000000000",
	"018446744073709551615", "0018446744073709551615", "00018446744073709551615",
	"018446744073709551616", "00018446744073709551616", "000000000000000000000007",
	"100000000000000000000", "12345678901234567890123", "1234567890123456a", "12345678901234567890x",
	"1234567890123456789\x01", "123456789012345678901/", "12345678901234567890123:",
}

// TestScanLongRuns holds the straight-line conversion to the reference
// at the edges of its guard: each long run ends the line, is followed by
// 0–9 more bytes (so the 24-byte guard falls before, at and after the
// run's end), by a non-separator byte, or by another key.
func TestScanLongRuns(t *testing.T) {
	for _, run := range scanLongRuns {
		for pad := 1; pad <= 8; pad++ {
			head := "MINSERT b" + strings.Repeat(" ", pad)
			for _, tail := range []string{"", " ", "x", "\x80", " 1", "  12", " 123", " 1234", " 12345678", "\t123456789", "a 1234567"} {
				checkScan(t, []byte(head+run+tail))
				checkScan(t, []byte("SKETCH.QUERY b"+strings.Repeat(" ", pad)+run+tail))
			}
		}
	}
	for _, tok := range scanEdgeTokens {
		checkScan(t, []byte("MINSERT b "+tok+" 12345678"))
	}
	// A stray byte anywhere in the first two words of a run whose third
	// word ends it.
	for _, c := range []byte{' ', '\t', 'a', '/', ':', 0x01, 0x80} {
		for pos := 0; pos < 16; pos++ {
			for _, third := range []string{"12345678", "7 123456", "1234567 "} {
				run := []byte("1234567890123456" + third)
				run[pos] = c
				checkScan(t, append([]byte("MINSERT b "), run...))
				checkScan(t, append([]byte("MINSERT b 1 "), append(run, " 7"...)...))
			}
		}
	}
}

// TestScanRandom throws lines assembled from the shapes above at the
// scanner: mostly well-formed, with every kind of token, separator and
// stray byte mixed in.
func TestScanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1016))
	verbs := []string{"MINSERT", "minsert", "SKETCH.INSERT", "Sketch.Insert", "SKETCH.QUERY", "SKETCH.CARD", "PING", "SKETCH.DROP"}
	token := func() string {
		switch rng.Intn(12) {
		case 0:
			return []string{"alice", "12a", "+5", "-1", "1.5", "99999999999999999999", "18446744073709551616"}[rng.Intn(7)]
		case 1:
			return strings.Repeat("0", rng.Intn(24)) + strconv.FormatUint(rng.Uint64(), 10)
		case 2:
			return strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10)
		case 3:
			b := []byte(strconv.FormatUint(rng.Uint64(), 10))
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
			return string(b)
		default:
			return strconv.FormatUint(rng.Uint64(), 10)
		}
	}
	for i := 0; i < 200_000; i++ {
		var sb strings.Builder
		sb.WriteString(verbs[rng.Intn(len(verbs))])
		sb.WriteString(scanSeps[rng.Intn(len(scanSeps))])
		sb.WriteString([]string{"b", "flows", "a.b:c-d_e"}[rng.Intn(3)])
		for n := []int{0, 1, 2, 8, 64, MaxArgs - 2, MaxArgs - 1}[rng.Intn(7)]; n > 0; n-- {
			sb.WriteString(scanSeps[rng.Intn(len(scanSeps))])
			sb.WriteString(token())
		}
		if rng.Intn(4) == 0 {
			sb.WriteString(scanSeps[rng.Intn(len(scanSeps))])
		}
		checkScan(t, []byte(sb.String()))
	}
}

// batchTrace is everything a request line may leave on a connection's
// batch engine and its writers, copied out.
type batchTrace struct {
	Groups                      []string
	Ngroups, Cmds, Nkeys        int
	Admitted                    bool
	End                         wal.Cursor
	Counts                      []uint64
	Handled, Keys, Last, Buffer int
	Commands, Inserts           int64
}

func traceOf(b *connBatch, w *bufio.Writer) batchTrace {
	tr := batchTrace{
		Ngroups: b.ngroups, Cmds: b.cmds, Nkeys: b.nkeys, Admitted: b.admitted, End: b.bw.end,
		Counts: slices.Clone(b.counts[:]), Handled: b.handled, Keys: b.keys, Last: b.last,
		Buffer: w.Buffered(), Commands: b.s.ctr.Commands.Value(), Inserts: b.s.ctr.Inserts.Value(),
	}
	// Every slot of the backing array, not only the live ones: a group
	// made and abandoned would keep its name and keys beyond ngroups.
	for _, g := range b.groups[:cap(b.groups)] {
		tr.Groups = append(tr.Groups, fmt.Sprintf("%q %v", g.name, g.keys))
	}
	return tr
}

// TestFastDeclineLeavesNoTrace: a line the fast path gives up on, at
// whatever token, leaves the batch, its counters and the writers exactly
// as it found them — on an idle batch and on one with inserts pending —
// and the slow path that then runs (here a DROP and a CREATE of the same
// name) cannot be followed by a fast line that reaches the old sketch.
func TestFastDeclineLeavesNoTrace(t *testing.T) {
	long := func(n int, at int, tok string) string {
		var sb strings.Builder
		sb.WriteString("MINSERT b")
		for i := 1; i <= n; i++ {
			if i == at {
				sb.WriteString(" " + tok)
			} else {
				fmt.Fprintf(&sb, " %d", 1000+i)
			}
		}
		return sb.String()
	}
	declines := []string{
		long(64, 40, "12\x0134"),         // control byte in the 40th key
		long(64, 40, "caf\xc3\xa9"),      // non-ASCII mid-line
		long(64, 64, "18446744073\x7f"),  // DEL in the last key
		long(MaxArgs-1, 0, ""),           // a 128th key
		long(3, 0, "") + "\n7",           // LF inside the line
		"MINSERT nosuch 1 2 3",           // unknown sketch, after its keys are scanned
		"SKETCH.QUERY b 1 2",             // wrong arity, seen at the second key
		"SKETCH.QUERY b 1\x01",           // control byte glued to a read's key
		"SKETCH.CARD h \x80",             // trailing high-bit byte
		"SKETCH.DROP b",                  // not a fast verb
		"MINSERT b",                      // no key
		long(2, 0, "") + " \xe2\x80\x83", // a Unicode space ParseCommand would split at
	}
	for _, withWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) {
			var cfg Config
			if withWAL {
				cfg.WALDir = t.TempDir()
			}
			s := startServer(t, cfg)
			mustSketch(t, s, "b")
			mustSketch(t, s, "b2")
			if err := s.reg.Create("h", "hll", map[string]string{"window": "4096"}); err != nil {
				t.Fatal(err)
			}
			for _, pending := range []bool{false, true} {
				b := &connBatch{s: s, bw: &syncWriter{s: s}}
				w := bufio.NewWriterSize(io.Discard, 32*1024)
				if pending {
					for _, line := range []string{"MINSERT b 1 2 3", "MINSERT b2 4", "SKETCH.INSERT b 5"} {
						if handled, _, err := b.tryFast([]byte(line), w); !handled || err != nil {
							t.Fatalf("tryFast(%q) = %v, %v", line, handled, err)
						}
					}
				}
				for _, line := range declines {
					before := traceOf(b, w)
					handled, _, err := b.tryFast([]byte(line), w)
					if handled || err != nil {
						t.Fatalf("tryFast(%q) = %v, %v, want a decline", line, handled, err)
					}
					if after := traceOf(b, w); !reflect.DeepEqual(before, after) {
						t.Fatalf("pending=%v: declined %q left a trace\nbefore %+v\nafter  %+v", pending, line, before, after)
					}
				}
				if err := b.apply(); err != nil {
					t.Fatal(err)
				}
			}

			// Over the wire, as handleConn runs it: fast, decline, DROP and
			// CREATE on the slow path, fast again — in one pipelined write,
			// so the lines share a batch.
			c := dial(t, s.Addr().String())
			script := "MINSERT b 71 72\n" + long(64, 40, "12\x0134") + "\nSKETCH.DROP b\n" +
				"SKETCH.CREATE b bloom bits=65536 window=65536 shards=2\nMINSERT b 73\n" +
				"SKETCH.QUERY b 73\nSKETCH.QUERY b 71\n"
			if _, err := io.WriteString(c.conn, script); err != nil {
				t.Fatal(err)
			}
			for i, want := range []string{":2", "-ERR control byte 0x01 in command", "+OK", "+OK", ":1", ":1", ":0"} {
				got, err := c.r.ReadString('\n')
				if err != nil || strings.TrimSpace(got) != want {
					t.Fatalf("reply %d = %q, %v, want %q", i, got, err, want)
				}
			}
		})
	}
}

// BenchmarkScanLine is the tokenizer stage alone on the benchmark's
// insert shape: MINSERT with 64 random uint64 keys in decimal, 17–20
// digits each.
func BenchmarkScanLine(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	lines := make([][]byte, 256)
	for i := range lines {
		line := []byte("MINSERT flows")
		for k := 0; k < 64; k++ {
			line = strconv.AppendUint(append(line, ' '), rng.Uint64(), 10)
		}
		lines[i] = line
	}
	var keys []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if _, _, keys, ok = scanLine(lines[i%len(lines)], keys[:0]); !ok || len(keys) != 64 {
			b.Fatal("declined")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/key")
}
