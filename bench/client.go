package main

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// replyTimeout bounds every wait for a reply, so that a wedged server
// fails the run instead of hanging it.
const replyTimeout = 30 * time.Second

// client is one connection to shed. It reads replies through its own
// buffer, stamping the clock once per read from the socket: every reply
// in that chunk arrived at the stamp, which is all the latency
// resolution a pipelined caller has, at one clock read per syscall.
type client struct {
	c     net.Conn
	buf   []byte
	r, w  int
	stamp time.Time // when the bytes in buf[r:w] were read
}

func dial(addr string) (*client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{c: c, buf: make([]byte, 64*1024)}, nil
}

func (cl *client) close() { cl.c.Close() }

// buffered returns the next complete reply line already read from the
// socket, without its terminator; ok is false when none is.
func (cl *client) buffered() (line []byte, ok bool) {
	i := bytes.IndexByte(cl.buf[cl.r:cl.w], '\n')
	if i < 0 {
		return nil, false
	}
	line = cl.buf[cl.r : cl.r+i]
	cl.r += i + 1
	return bytes.TrimSuffix(line, []byte("\r")), true
}

// fill reads more reply bytes from the socket and stamps them.
func (cl *client) fill() error {
	if cl.r == cl.w {
		cl.r, cl.w = 0, 0
	} else if cl.w == len(cl.buf) {
		if cl.r == 0 {
			cl.buf = append(cl.buf, make([]byte, len(cl.buf))...)
		} else {
			cl.w = copy(cl.buf, cl.buf[cl.r:cl.w])
			cl.r = 0
		}
	}
	n, err := cl.c.Read(cl.buf[cl.w:])
	cl.stamp = time.Now()
	cl.w += n
	if n > 0 {
		return nil
	}
	return err
}

// line blocks for the next reply line.
func (cl *client) line() ([]byte, error) {
	for {
		if l, ok := cl.buffered(); ok {
			return l, nil
		}
		if err := cl.fill(); err != nil {
			return nil, err
		}
	}
}

// check reports what is wrong with reply as the answer to a command of
// kind k carrying nkeys keys, or "" when it is what the protocol
// promises.
func check(k kind, nkeys int32, reply []byte) string {
	if len(reply) < 2 {
		return "empty reply"
	}
	if k == kCard {
		if reply[0] != '+' {
			return "want +<float>"
		}
		if _, err := strconv.ParseFloat(string(reply[1:]), 64); err != nil {
			return "want +<float>"
		}
		return ""
	}
	if reply[0] != ':' {
		return "want :<int>"
	}
	var n int64
	for _, c := range reply[1:] {
		if c < '0' || c > '9' {
			return "want :<int>"
		}
		n = n*10 + int64(c-'0')
	}
	switch k {
	case kMinsert, kInsert:
		if n != int64(nkeys) {
			return fmt.Sprintf("want :%d, one per key", nkeys)
		}
	case kQueryBHit:
		if n != 1 {
			return "false negative: key is in the window"
		}
	case kQueryB:
		if n > 1 {
			return "want :0 or :1"
		}
	}
	return ""
}

// do sends one command and returns its reply: one element for a
// simple, integer or error reply, the elements of an array reply
// otherwise, each without its type byte. An error reply is an error.
func (cl *client) do(cmd string) ([]string, error) {
	cl.c.SetDeadline(time.Now().Add(replyTimeout))
	if _, err := cl.c.Write([]byte(cmd + "\n")); err != nil {
		return nil, err
	}
	l, err := cl.line()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", firstWord(cmd), err)
	}
	if len(l) == 0 {
		return nil, fmt.Errorf("%s: empty reply", firstWord(cmd))
	}
	switch l[0] {
	case '-':
		return nil, fmt.Errorf("%s: %s", firstWord(cmd), l)
	case '*':
		n, err := strconv.Atoi(string(l[1:]))
		if err != nil {
			return nil, fmt.Errorf("%s: bad array header %q", firstWord(cmd), l)
		}
		out := make([]string, n)
		for i := range out {
			e, err := cl.line()
			if err != nil {
				return nil, err
			}
			out[i] = strings.TrimPrefix(string(e), "+")
		}
		return out, nil
	}
	return []string{string(l[1:])}, nil
}

func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i > 0 {
		return s[:i]
	}
	return s
}

// field finds name=value among the space-separated fields of the
// lines of an array reply (ROLE, INFO).
func field(lines []string, name string) (string, bool) {
	for _, l := range lines {
		for _, f := range strings.Fields(l) {
			if v, ok := strings.CutPrefix(f, name+"="); ok {
				return v, true
			}
		}
	}
	return "", false
}

func fieldInt(lines []string, name string) (int64, error) {
	v, ok := field(lines, name)
	if !ok {
		return 0, fmt.Errorf("no %s= in reply", name)
	}
	return strconv.ParseInt(v, 10, 64)
}

// failures counts what went wrong on a connection and keeps the first
// instance to print.
type failures struct {
	n     int64
	first string
}

func (f *failures) add(format string, args ...any) {
	if f.n == 0 {
		f.first = fmt.Sprintf(format, args...)
	}
	f.n++
}

// exchange writes commands [i, j) of sc in one write and reads their
// replies, checking each. Replies are handed to observe in chunks: n
// replies of which writes are writes arrived at stamp.
func (cl *client) exchange(sc *script, i, j int, fails *failures, observe func(stamp time.Time, writes, reads int)) error {
	cl.c.SetDeadline(time.Now().Add(replyTimeout))
	if _, err := cl.c.Write(sc.bytes(i, j)); err != nil {
		return err
	}
	writes, reads := 0, 0
	for got := i; got < j; {
		l, ok := cl.buffered()
		if !ok {
			if observe != nil && writes+reads > 0 {
				observe(cl.stamp, writes, reads)
				writes, reads = 0, 0
			}
			if err := cl.fill(); err != nil {
				fails.add("%d replies missing after command %q: %v", j-got, sc.bytes(got, got+1), err)
				fails.n += int64(j - got - 1)
				return err
			}
			continue
		}
		rq := sc.reqs[got]
		if msg := check(rq.kind, rq.nkeys, l); msg != "" {
			fails.add("command %q answered %q: %s", bytes.TrimSpace(sc.bytes(got, got+1)), l, msg)
		}
		if rq.kind.isWrite() {
			writes++
		} else {
			reads++
		}
		got++
	}
	if observe != nil && writes+reads > 0 {
		observe(cl.stamp, writes, reads)
	}
	return nil
}

// minsert loads keys into a sketch in order over one connection,
// MINSERT lines of 64 keys, 64 lines a flush: how set-up preloads.
func (cl *client) minsert(name string, keys []uint64) error {
	var sc script
	var fails failures
	for len(keys) > 0 {
		sc.buf, sc.reqs = sc.buf[:0], sc.reqs[:0]
		for l := 0; l < ingestFlush && len(keys) > 0; l++ {
			n := min(keysPerLine, len(keys))
			sc.add(kMinsert, n, "MINSERT", name, keys[:n]...)
			keys = keys[n:]
		}
		if err := cl.exchange(&sc, 0, len(sc.reqs), &fails, nil); err != nil {
			return err
		}
	}
	if fails.n > 0 {
		return fmt.Errorf("preload of %s: %s", name, fails.first)
	}
	return nil
}

// queryAll sends one SKETCH.QUERY per key, pipelined perFlush to a
// flush, and returns the integer answers in order.
func (cl *client) queryAll(name string, keys []uint64, perFlush int) ([]int64, error) {
	out := make([]int64, 0, len(keys))
	var buf []byte
	for len(keys) > 0 {
		n := min(perFlush, len(keys))
		buf = buf[:0]
		for _, k := range keys[:n] {
			buf = append(buf, "SKETCH.QUERY "...)
			buf = append(buf, name...)
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, k, 10)
			buf = append(buf, '\n')
		}
		keys = keys[n:]
		cl.c.SetDeadline(time.Now().Add(replyTimeout))
		if _, err := cl.c.Write(buf); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			l, err := cl.line()
			if err != nil {
				return nil, err
			}
			if len(l) < 2 || l[0] != ':' {
				return nil, fmt.Errorf("SKETCH.QUERY %s answered %q", name, l)
			}
			v, err := strconv.ParseInt(string(l[1:]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("SKETCH.QUERY %s answered %q", name, l)
			}
			out = append(out, v)
		}
	}
	return out, nil
}
