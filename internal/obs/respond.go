package obs

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Responder answers HTTP/1.1 GET requests on a listener, one request a
// connection, from a Route. It is all of HTTP a debug listener needs:
// net/http would link TLS, x509, MIME and HTML into the binary, about
// 2.4 MiB of text and rodata resident in every process, for three GET
// pages. For each connection it reads one request line and header block
// within maxRequest bytes and one timeout, routes the path, and answers
// with Content-Type, Content-Length and Connection: close. Any method
// but GET is answered 405, a malformed or oversized request 400; a
// client that sends no whole request in time is closed unanswered.
type Responder struct {
	ln      net.Listener
	route   Route
	timeout time.Duration
	ctx     context.Context // ends at Close: a waiting route returns
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// A Route writes the page for path (query is the raw query string, ""
// without '?') into body and returns its Content-Type: "" when there is
// no such page, which is answered 404, and an error, answered 500 with
// its text. ctx ends when the Responder closes, and a route that waits
// returns then.
type Route func(ctx context.Context, path, query string, body *bytes.Buffer) (contentType string, err error)

const (
	maxRequest     = 8 << 10          // request line plus headers
	requestTimeout = 10 * time.Second // to read the request, and again to write the reply
	maxAnswering   = 8                // connections answered at once; more wait in the backlog
)

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	500: "Internal Server Error",
}

// Serve answers GET requests on ln from route until Close.
func Serve(ln net.Listener, route Route) *Responder {
	return serve(ln, route, requestTimeout)
}

func serve(ln net.Listener, route Route, timeout time.Duration) *Responder {
	r := &Responder{ln: ln, route: route, timeout: timeout, conns: make(map[net.Conn]struct{})}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.wg.Add(1)
	go r.accept()
	return r
}

// Close closes the listener and every open connection, ends the context
// of every running route, and returns once they have all returned.
func (r *Responder) Close() {
	r.mu.Lock()
	r.closed = true
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.cancel()
	r.ln.Close()
	r.wg.Wait()
}

func (r *Responder) accept() {
	defer r.wg.Done()
	slots := make(chan struct{}, maxAnswering)
	for {
		select {
		case slots <- struct{}{}:
		case <-r.ctx.Done():
			return
		}
		c, err := r.ln.Accept()
		if err != nil {
			return // listener closed, or a fatal accept error
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			c.Close()
			return
		}
		r.conns[c] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.answer(c)
			r.mu.Lock()
			delete(r.conns, c)
			r.mu.Unlock()
			c.Close()
			<-slots
		}()
	}
}

// answer reads one request from c and writes its reply.
func (r *Responder) answer(c net.Conn) {
	c.SetDeadline(time.Now().Add(r.timeout))
	lim := &io.LimitedReader{R: c, N: maxRequest}
	br := bufio.NewReader(lim)
	line, err := br.ReadString('\n')
	for h := line; err == nil && strings.TrimRight(h, "\r\n") != ""; {
		h, err = br.ReadString('\n')
	}
	if err != nil {
		if lim.N == 0 {
			r.reply(c, 400, "", nil)
		}
		return // timed out or hung up before a whole request
	}
	method, rest, ok1 := strings.Cut(strings.TrimRight(line, "\r\n"), " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	switch {
	case !ok1 || !ok2 || !strings.HasPrefix(proto, "HTTP/1.") || !strings.HasPrefix(target, "/"):
		r.reply(c, 400, "", nil)
	case method != "GET":
		r.reply(c, 405, "", nil)
	default:
		path, query, _ := strings.Cut(target, "?")
		c.SetDeadline(time.Time{}) // a route may wait: a CPU profile runs for seconds
		var body bytes.Buffer
		ctype, err := r.route(r.ctx, path, query, &body)
		switch {
		case err != nil:
			r.reply(c, 500, "", []byte(err.Error()+"\n"))
		case ctype == "":
			r.reply(c, 404, "", nil)
		default:
			r.reply(c, 200, ctype, body.Bytes())
		}
	}
}

// reply writes the status line, the three headers and body, then half
// closes c and reads what the client still sends, so that closing with
// unread bytes (an oversized request) resets no reply the client has
// not read yet.
func (r *Responder) reply(c net.Conn, status int, ctype string, body []byte) {
	if status != 200 {
		ctype = "text/plain; charset=utf-8"
		if len(body) == 0 {
			body = []byte(statusText[status] + "\n")
		}
	}
	head := "HTTP/1.1 " + strconv.Itoa(status) + " " + statusText[status] + "\r\n"
	if status == 405 {
		head += "Allow: GET\r\n"
	}
	head += "Content-Type: " + ctype + "\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\nConnection: close\r\n\r\n"
	c.SetDeadline(time.Now().Add(r.timeout))
	bufs := net.Buffers{[]byte(head), body}
	if _, err := bufs.WriteTo(c); err != nil {
		return
	}
	if cw, ok := c.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	c.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, io.LimitReader(c, 64<<10))
}
