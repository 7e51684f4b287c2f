package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"she/internal/cli"
)

// Wire-protocol limits. A request line longer than MaxLineBytes is a
// protocol error that closes the connection (the reader cannot resync
// inside an oversized line); every other malformed command gets an
// -ERR reply and the connection stays open.
const (
	MaxLineBytes = 64 * 1024
	MaxArgs      = 129 // command name + at most 128 arguments
)

// Command is one parsed request: the upper-cased command name plus its
// raw argument tokens.
type Command struct {
	Name string
	Args []string
}

// ErrEmpty reports a blank request line; the connection skips it
// without a reply, so `nc` users can hit return freely.
var ErrEmpty = errors.New("empty command")

// ParseCommand splits one request line into a Command. The trailing
// LF/CRLF is optional (tests and fuzzing pass bare strings; the
// connection loop passes lines with the terminator still attached).
func ParseCommand(line string) (Command, error) {
	if len(line) > MaxLineBytes {
		return Command{}, fmt.Errorf("line exceeds %d bytes", MaxLineBytes)
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Command{}, ErrEmpty
	}
	if len(fields) > MaxArgs {
		return Command{}, fmt.Errorf("too many arguments (%d > %d)", len(fields)-1, MaxArgs-1)
	}
	for _, f := range fields {
		for i := 0; i < len(f); i++ {
			if f[i] < 0x20 || f[i] == 0x7f {
				return Command{}, fmt.Errorf("control byte 0x%02x in command", f[i])
			}
		}
	}
	return Command{Name: strings.ToUpper(fields[0]), Args: fields[1:]}, nil
}

// eqVerb reports whether tok equals verb — which must be upper-case
// ASCII — ignoring ASCII case: the byte-slice analogue of the
// strings.ToUpper in ParseCommand.
func eqVerb(tok []byte, verb string) bool {
	if len(tok) != len(verb) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != verb[i] {
			return false
		}
	}
	return true
}

// ParseKV interprets tokens of the form key=value (SKETCH.CREATE
// parameters). Keys are lower-cased; duplicates are rejected.
func ParseKV(args []string) (map[string]string, error) {
	kv := make(map[string]string, len(args))
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("expected param=value, got %q", a)
		}
		k = strings.ToLower(k)
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("duplicate parameter %q", k)
		}
		kv[k] = v
	}
	return kv, nil
}

// ParseKey converts a key token exactly as cmd/she does: decimal
// uint64s directly, anything else hashed, so the same identifier names
// the same key across every tool.
func ParseKey(tok string) uint64 { return cli.ParseKey(tok) }

// ValidName reports whether name is usable as a sketch name. Names
// double as autosave file names, so the alphabet is restricted.
func ValidName(name string) bool {
	if name == "" || len(name) > maxNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '_' || c == '-' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return name != "." && name != ".."
}

// Reply writers. The protocol is line-based: \n terminators, no length
// prefixes, so transcripts read cleanly in nc. The scalar replies are
// rendered straight into the writer's free space (AvailableBuffer), so
// they neither allocate nor pass through fmt.

func writeSimple(w *bufio.Writer, s string) {
	w.WriteByte('+')
	w.WriteString(s)
	w.WriteByte('\n')
}

func writeInt(w *bufio.Writer, v int64) {
	b := append(w.AvailableBuffer(), ':')
	b = strconv.AppendInt(b, v, 10)
	w.Write(append(b, '\n'))
}

// writeFloat uses the shortest exact decimal ('g', precision -1), not a
// fixed %.1f: a cardinality estimate of 1234567.9 must not come back as
// a truncated lie, and small fractions (fill ratios) must not collapse
// to 0.0.
func writeFloat(w *bufio.Writer, v float64) {
	b := append(w.AvailableBuffer(), '+')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	w.Write(append(b, '\n'))
}

func writeError(w io.Writer, msg string) {
	msg = strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' {
			return ' '
		}
		return r
	}, msg)
	fmt.Fprintf(w, "-ERR %s\n", msg)
}

func writeArray(w *bufio.Writer, lines []string) {
	fmt.Fprintf(w, "*%d\n", len(lines))
	for _, l := range lines {
		writeSimple(w, l)
	}
}
