package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// userHz is the unit of utime/stime in /proc/<pid>/stat. It is 100 on
// every Linux port Go runs on (USER_HZ, fixed by the kernel ABI).
const userHz = 100

// proc is one shed child.
type proc struct {
	cmd   *exec.Cmd
	addr  string // sketch protocol
	debug string // http://host:port, "" without -debug
	start time.Time
	done  chan struct{} // closed when the process has been reaped

	mu   sync.Mutex
	tail []string // last stderr lines, for a failure report
}

// live holds every child not yet reaped, so that a signal or a failed
// check can stop them all.
var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

func killAll() {
	live.Lock()
	procs := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// buildShed compiles cmd/shed of the checked-out tree into dir. The
// benchmark must run from the root of the checkout, which is where
// bench/run.sh puts it.
func buildShed(dir string) (string, error) {
	if _, err := os.Stat("cmd/shed/main.go"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin := filepath.Join(dir, "shed")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/shed").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/shed: %v\n%s", err, out)
	}
	return bin, nil
}

// startShed starts bin on a free loopback port (and, with debug, a
// free debug port) and returns once it logs that it listens. shed
// inherits GOMAXPROCS = maxProcs through its environment.
func startShed(bin string, maxProcs int, debug bool, args ...string) (*proc, error) {
	args = append([]string{"-listen", "127.0.0.1:0", "-log-level", "info"}, args...)
	if debug {
		args = append(args, "-debug", "127.0.0.1:0")
	}
	p := &proc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs))
	// Should the benchmark itself be killed outright, the kernel stops
	// the child: no path out of a run leaves a shed behind.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p.start = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start shed: %w", err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()

	ready := make(chan struct{})
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		need := 1
		if debug {
			need = 2
		}
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			if need > 0 {
				if v := logField(line, "addr"); v != "" && strings.Contains(line, "msg=listening") {
					p.addr = v
					need--
				}
				if v := logField(line, "metrics"); v != "" {
					p.debug = strings.TrimSuffix(v, "/metrics")
					need--
				}
				if need == 0 {
					close(ready)
				}
			}
			p.mu.Unlock()
		}
		p.cmd.Wait() // the exit status of a child we kill is not news
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
	}()
	select {
	case <-ready:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("shed exited before listening:\n%s", p.logTail())
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("shed did not listen within 30s:\n%s", p.logTail())
	}
}

// logField extracts key=value from a logfmt line (values here are
// never quoted: addresses and URLs).
func logField(line, key string) string {
	i := strings.Index(line, " "+key+"=")
	if i < 0 {
		return ""
	}
	v := line[i+len(key)+2:]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return v
}

func (p *proc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// kill is kill -9 and waits until the process is reaped.
func (p *proc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL) // fails only when already gone
	<-p.done
}

// cpuSeconds returns user+system CPU the process has used so far.
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	// comm may contain spaces; the fields after the closing paren do not.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", p.pid())
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", p.pid())
	}
	return float64(utime+stime) / userHz, nil
}

// statusMiB returns a memory field of /proc/<pid>/status in MiB: VmRSS,
// the resident set now, or VmHWM, its high-water mark.
func (p *proc) statusMiB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, p.pid())
}

// selfCPUSeconds is the generator's own user+system CPU.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
