package obs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// Pprof is the Route for /debug/pprof/, built on runtime/pprof and
// runtime/trace: the index, cmdline, a CPU profile (profile?seconds=,
// default 30), an execution trace (trace?seconds=, default 1) and every
// named profile (?debug=N for text, ?gc=1 to collect garbage first).
// There is no symbol page: Go profiles carry their own symbols.
func Pprof(ctx context.Context, path, query string, body *bytes.Buffer) (string, error) {
	const binary = "application/octet-stream"
	name := strings.TrimPrefix(path, "/debug/pprof/")
	switch name {
	case "":
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(body, "%d\t%s\n", p.Count(), p.Name())
		}
		body.WriteString("\ncmdline, profile?seconds=30, trace?seconds=1; ?debug=1 for text\n")
		return "text/plain; charset=utf-8", nil
	case "cmdline":
		body.WriteString(strings.Join(os.Args, "\x00"))
		return "text/plain; charset=utf-8", nil
	case "profile":
		if err := pprof.StartCPUProfile(body); err != nil {
			return "", fmt.Errorf("could not enable CPU profiling: %w", err)
		}
		wait(ctx, seconds(query, 30))
		pprof.StopCPUProfile()
		return binary, nil
	case "trace":
		if err := trace.Start(body); err != nil {
			return "", fmt.Errorf("could not enable tracing: %w", err)
		}
		wait(ctx, seconds(query, 1))
		trace.Stop()
		return binary, nil
	}
	p := pprof.Lookup(name)
	if p == nil {
		return "", nil
	}
	if gc, _ := strconv.Atoi(queryValue(query, "gc")); gc > 0 {
		runtime.GC()
	}
	debug, _ := strconv.Atoi(queryValue(query, "debug"))
	if err := p.WriteTo(body, debug); err != nil {
		return "", fmt.Errorf("profile %s: %w", name, err)
	}
	if debug != 0 {
		return "text/plain; charset=utf-8", nil
	}
	return binary, nil
}

// wait returns after d or when ctx ends.
func wait(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// seconds reads ?seconds= as a duration, def when absent or not positive.
func seconds(query string, def float64) time.Duration {
	s, err := strconv.ParseFloat(queryValue(query, "seconds"), 64)
	if err != nil || !(s > 0) {
		s = def
	}
	return time.Duration(s * float64(time.Second))
}

// queryValue returns key's first value in a raw query string, undecoded:
// the pages here take only numbers.
func queryValue(query, key string) string {
	for _, kv := range strings.Split(query, "&") {
		if k, v, _ := strings.Cut(kv, "="); k == key {
			return v
		}
	}
	return ""
}
