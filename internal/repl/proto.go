package repl

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"she/internal/wal"
)

// Wire vocabulary of the replication channel. Kept as raw line
// constants so both ends and the tests spell them identically.
const (
	verbRec     = "REC"
	verbPing    = "PING"
	verbAck     = "REPLACK"
	verbSnap    = "SNAP"
	verbEndSnap = "ENDSNAP"
)

// MaxSnapshotFileBytes caps a single streamed snapshot file. The
// server's SKETCH.CREATE size caps bound any legitimate sketch far
// below this; anything larger is a corrupt or hostile length field.
const MaxSnapshotFileBytes = 1 << 30

// ParseCursor reads a (gen, seg, off) triple from three decimal
// tokens.
func ParseCursor(gen, seg, off string) (wal.Cursor, error) {
	g, err1 := strconv.ParseUint(gen, 10, 64)
	s, err2 := strconv.ParseUint(seg, 10, 64)
	o, err3 := strconv.ParseInt(off, 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || o < 0 {
		return wal.Cursor{}, fmt.Errorf("repl: bad cursor %q %q %q", gen, seg, off)
	}
	return wal.Cursor{Gen: g, Seg: s, Off: o}, nil
}

// WriteRecord frames one replicated WAL record: the cursor is the
// position immediately after the record in the primary's log. tid is
// an optional trace ID (0 = none): when the primary sampled the
// command that produced this record, the ID rides the frame as a
// sixth hex field so the follower's apply joins the same trace.
// Unsampled records keep the original five-field shape, which is also
// what pre-tracing followers require — they reject unknown fields, so
// the sixth appears only on the (sampled, rare) records that need it.
// The header is rendered into the writer's free space, like the
// server's scalar replies: no fmt, no allocation.
func WriteRecord(w *bufio.Writer, end wal.Cursor, payload []byte, tid uint64) error {
	b := appendCursor(append(w.AvailableBuffer(), verbRec...), end)
	b = strconv.AppendUint(append(b, ' '), uint64(len(payload)), 10)
	if tid != 0 {
		b = append(b, ' ')
		for shift := 60; shift >= 0; shift -= 4 {
			b = append(b, "0123456789abcdef"[tid>>shift&0xf])
		}
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// WriteAck frames a follower acknowledgement: everything up to cursor
// is applied (and locally durable when the follower runs a WAL); recs
// and bytes are session-cumulative applied totals, which let the
// primary compute record-level lag without a shared record numbering.
func WriteAck(w *bufio.Writer, c wal.Cursor, recs, bytes uint64) error {
	b := appendCursor(append(w.AvailableBuffer(), verbAck...), c)
	b = strconv.AppendUint(append(b, ' '), recs, 10)
	b = strconv.AppendUint(append(b, ' '), bytes, 10)
	_, err := w.Write(append(b, '\n'))
	return err
}

// ReadAck reads one acknowledgement frame, as WriteAck writes it.
func ReadAck(r *bufio.Reader) (c wal.Cursor, recs, bytes uint64, err error) {
	line, err := readLine(r)
	if err != nil {
		return c, 0, 0, err
	}
	f := strings.Fields(line)
	if len(f) != 6 || f[0] != verbAck {
		return c, 0, 0, fmt.Errorf("repl: bad ack line %q", line)
	}
	if c, err = ParseCursor(f[1], f[2], f[3]); err != nil {
		return c, 0, 0, err
	}
	recs, err1 := strconv.ParseUint(f[4], 10, 64)
	bytes, err2 := strconv.ParseUint(f[5], 10, 64)
	if err1 != nil || err2 != nil {
		return c, 0, 0, fmt.Errorf("repl: bad ack counts %q", line)
	}
	return c, recs, bytes, nil
}

// appendCursor appends " gen seg off" in decimal.
func appendCursor(b []byte, c wal.Cursor) []byte {
	b = strconv.AppendUint(append(b, ' '), c.Gen, 10)
	b = strconv.AppendUint(append(b, ' '), c.Seg, 10)
	return strconv.AppendInt(append(b, ' '), c.Off, 10)
}

// WriteSnapshotFile frames one full-sync snapshot file.
func WriteSnapshotFile(w *bufio.Writer, name string, data []byte) error {
	if _, err := fmt.Fprintf(w, "%s %s %d\n", verbSnap, name, len(data)); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// splitFields appends the whitespace-separated fields of one protocol
// line, terminator and all, to dst: strings.Fields for a line still in
// the reader's buffer.
func splitFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i, c := range line {
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// readLine returns one LF-terminated line without its terminator.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// readBlob appends a length-delimited binary body to dst and consumes
// the newline behind it.
func readBlob(r *bufio.Reader, dst []byte, n, max int64) ([]byte, error) {
	if n < 0 || n > max {
		return nil, fmt.Errorf("repl: blob length %d out of range", n)
	}
	end := len(dst) + int(n)
	dst = slices.Grow(dst, int(n)+1)[:end+1]
	if _, err := io.ReadFull(r, dst[end-int(n):]); err != nil {
		return nil, err
	}
	if b := dst[end]; b != '\n' {
		return nil, fmt.Errorf("repl: blob not newline-terminated (got 0x%02x)", b)
	}
	return dst[:end], nil
}
