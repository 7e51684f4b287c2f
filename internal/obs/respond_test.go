package obs

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// startResponder serves route on a loopback port with the given request
// timeout and closes it when the test ends.
func startResponder(t *testing.T, route Route, timeout time.Duration) (*Responder, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := serve(ln, route, timeout)
	t.Cleanup(r.Close)
	return r, ln.Addr().String()
}

// roundTrip sends req raw and returns everything read until the
// responder closes, and how long that took.
func roundTrip(t *testing.T, addr, req string) (string, time.Duration, error) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(start.Add(3 * time.Second))
	got, err := io.ReadAll(c)
	return string(got), time.Since(start), err
}

// TestResponderContract holds the responder to what it answers and
// refuses: every case reads until the responder closes the connection,
// so a reply that leaves the connection open fails too.
func TestResponderContract(t *testing.T) {
	const timeout = 200 * time.Millisecond
	_, addr := startResponder(t, func(_ context.Context, path, query string, body *bytes.Buffer) (string, error) {
		if path != "/page" {
			return "", nil
		}
		body.WriteString("page " + query)
		return "text/x-test", nil
	}, timeout)
	text := "Content-Type: text/plain; charset=utf-8\r\n"
	for _, tc := range []struct {
		name, req, want string
		atDeadline      bool // the responder closes only once the timeout has passed
	}{
		{name: "get", req: "GET /page?x=1 HTTP/1.1\r\nHost: a\r\n\r\n",
			want: "HTTP/1.1 200 OK\r\nContent-Type: text/x-test\r\nContent-Length: 8\r\nConnection: close\r\n\r\npage x=1"},
		{name: "bare LF", req: "GET /page HTTP/1.0\n\n",
			want: "HTTP/1.1 200 OK\r\nContent-Type: text/x-test\r\nContent-Length: 5\r\nConnection: close\r\n\r\npage "},
		{name: "post", req: "POST /page HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
			want: "HTTP/1.1 405 Method Not Allowed\r\nAllow: GET\r\n" + text + "Content-Length: 19\r\nConnection: close\r\n\r\nMethod Not Allowed\n"},
		{name: "unknown path", req: "GET /nope HTTP/1.1\r\n\r\n",
			want: "HTTP/1.1 404 Not Found\r\n" + text + "Content-Length: 10\r\nConnection: close\r\n\r\nNot Found\n"},
		{name: "malformed", req: "GET /page\r\n\r\n",
			want: "HTTP/1.1 400 Bad Request\r\n" + text + "Content-Length: 12\r\nConnection: close\r\n\r\nBad Request\n"},
		{name: "over the bound", req: "GET /page HTTP/1.1\r\nX: " + strings.Repeat("x", maxRequest) + "\r\n\r\n",
			want: "HTTP/1.1 400 Bad Request\r\n" + text + "Content-Length: 12\r\nConnection: close\r\n\r\nBad Request\n"},
		{name: "silent", req: "", want: "", atDeadline: true},
		{name: "no blank line", req: "GET /page HTTP/1.1\r\n", want: "", atDeadline: true},
	} {
		got, took, err := roundTrip(t, addr, tc.req)
		if err != nil {
			t.Errorf("%s: not closed by the responder: %v (read %q)", tc.name, err, got)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: reply\n%q\nwant\n%q", tc.name, got, tc.want)
		}
		if tc.atDeadline != (took >= timeout) {
			t.Errorf("%s: closed after %v, timeout %v", tc.name, took, timeout)
		}
	}
}

// TestResponderCloseEndsProfile closes the responder while a 30-second
// CPU profile runs: Close returns at once, the profile is stopped by the
// time it does, and no goroutine of the responder outlives it.
func TestResponderCloseEndsProfile(t *testing.T) {
	before := runtime.NumGoroutine()
	started := make(chan struct{})
	r, addr := startResponder(t, func(ctx context.Context, path, query string, body *bytes.Buffer) (string, error) {
		close(started)
		return Pprof(ctx, path, query, body)
	}, time.Second)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, "GET /debug/pprof/profile?seconds=30 HTTP/1.1\r\n\r\n")
	<-started

	start := time.Now()
	r.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v during a profile", took)
	}
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("the profile outlived Close: %v", err)
	}
	pprof.StopCPUProfile()
	c.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := io.ReadAll(c); err != nil && !strings.Contains(err.Error(), "reset") {
		t.Fatalf("client connection not closed: %v", err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestPprofPages reads each kind of page the pprof route serves.
func TestPprofPages(t *testing.T) {
	for _, tc := range []struct{ path, query, ctype, has string }{
		{"/debug/pprof/", "", "text/plain; charset=utf-8", "\theap\n"},
		{"/debug/pprof/cmdline", "", "text/plain; charset=utf-8", ".test"},
		{"/debug/pprof/heap", "debug=1&gc=1", "text/plain; charset=utf-8", "heap profile:"},
		{"/debug/pprof/goroutine", "", "application/octet-stream", "\x1f\x8b"}, // gzipped protobuf
		{"/debug/pprof/profile", "seconds=0.05", "application/octet-stream", "\x1f\x8b"},
		{"/debug/pprof/trace", "seconds=0.05", "application/octet-stream", "go 1."},
		{"/debug/pprof/nosuch", "", "", ""},
	} {
		var body bytes.Buffer
		ctype, err := Pprof(context.Background(), tc.path, tc.query, &body)
		if err != nil || ctype != tc.ctype || !strings.Contains(body.String(), tc.has) {
			t.Errorf("%s?%s: Content-Type %q, err %v, body %.40q", tc.path, tc.query, ctype, err, body.String())
		}
	}
}
