package server

// The golden protocol transcript: what a client sends and, byte for
// byte, what shed answers — every verb at, under and over its arity,
// the refusals of each gate, and the ordering promises of a pipelined
// connection. It pins the wire behaviour across changes to the command
// loop; a reply that moves fails here first.

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"she/internal/wal"
)

// A script reads like a session. "= name" switches to (dialing on first
// use) the connection of that name; "> line" sends a line, escapes as in
// a Go string, together with the ">> line" lines right above it in one
// write; the lines under it are the replies expected, after normalize;
// "<" expects the lines under it with nothing sent; "~ closed" expects
// the server to have closed the connection; "! name" runs the hook of
// that name. An expected "*keys: a b c" stands for an array of
// key=value lines with those keys in that order, values not compared.
type transcript struct {
	name   string
	cfg    func(t *testing.T) Config
	hooks  map[string]func(t *testing.T, s *Server)
	script string
	after  func(t *testing.T, s *Server) // runs when the script is through; nil = nothing
}

// args129 is one argument more than a command may carry.
var args129 = strings.Repeat(" k", MaxArgs)

// volatile is what differs between two runs of the same script:
// addresses, clocks, ids, byte totals, temporary directories.
var volatile = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`127\.0\.0\.1:\d+`), "ADDR"},
	{regexp.MustCompile(`^\+\d+\.\d{6} `), "+TIME "},
	{regexp.MustCompile(`\b(id|age|idle|in|out|time|duration_us|trace)=[^ ]+`), "$1=#"},
	{regexp.MustCompile(`open \S+/`), "open DIR/"},
}

func normalize(line string) string {
	for _, v := range volatile {
		line = v.re.ReplaceAllString(line, v.with)
	}
	return line
}

// tconn is one scripted connection.
type tconn struct {
	conn net.Conn
	r    *bufio.Reader
}

func (c *tconn) line() (string, error) {
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.r.ReadString('\n')
	return strings.TrimSuffix(line, "\n"), err
}

// reply reads one reply — a line, or an array header and its lines —
// and renders it as the script would spell it.
func (c *tconn) reply(keysOnly bool) ([]string, error) {
	head, err := c.line()
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(head, "*") {
		return []string{normalize(head)}, nil
	}
	n, err := strconv.Atoi(head[1:])
	if err != nil {
		return nil, fmt.Errorf("array header %q", head)
	}
	out := []string{head}
	var keys []string
	for i := 0; i < n; i++ {
		l, err := c.line()
		if err != nil {
			return out, err
		}
		k, _, _ := strings.Cut(strings.TrimPrefix(l, "+"), "=")
		keys = append(keys, k)
		out = append(out, normalize(l))
	}
	if keysOnly {
		return []string{"*keys: " + strings.Join(keys, " ")}, nil
	}
	return out, nil
}

// expectedReplies splits the expected lines of one exchange into
// replies, an array header claiming the lines it counts.
func expectedReplies(t *testing.T, lines []string) [][]string {
	var out [][]string
	for i := 0; i < len(lines); i++ {
		n := 0
		if strings.HasPrefix(lines[i], "*") && !strings.HasPrefix(lines[i], "*keys:") {
			n, _ = strconv.Atoi(lines[i][1:])
		}
		if i+n >= len(lines) {
			t.Fatalf("script: array %q runs past its exchange", lines[i])
		}
		out = append(out, lines[i:i+n+1])
		i += n
	}
	return out
}

func (tr transcript) run(t *testing.T) {
	s := startServer(t, tr.cfg(t))
	conns := map[string]*tconn{}
	var cur *tconn
	var got []string // the session as it went, in script form
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\nthe session so far:\n%s", fmt.Sprintf(format, args...), strings.Join(got, "\n"))
	}
	lines := strings.Split(strings.TrimSpace(tr.script), "\n")
	for i := range lines {
		lines[i] = strings.TrimSpace(lines[i])
	}
	for i := 0; i < len(lines); {
		line := lines[i]
		i++
		got = append(got, line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "= "):
			name := line[2:]
			if conns[name] == nil {
				conn, err := net.Dial("tcp", s.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conns[name] = &tconn{conn: conn, r: bufio.NewReader(conn)}
			}
			cur = conns[name]
		case strings.HasPrefix(line, "! "):
			tr.hooks[line[2:]](t, s)
		case line == "~ closed":
			if l, err := cur.line(); err == nil {
				fail("line %d: want the connection closed, read %q", i, l)
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				fail("line %d: want the connection closed, it is open and silent", i)
			}
		case line[0] == '>' || line == "<":
			var send strings.Builder
			for ; line[0] == '>'; i++ {
				text, err := strconv.Unquote(`"` + strings.TrimPrefix(strings.TrimLeft(line, ">"), " ") + `"`)
				if err != nil {
					t.Fatalf("script line %d: %v", i, err)
				}
				send.WriteString(strings.ReplaceAll(text, "$ARGS129", args129) + "\n")
				if !strings.HasPrefix(line, ">>") {
					break
				}
				line = lines[i]
				got = append(got, line)
			}
			if _, err := cur.conn.Write([]byte(send.String())); err != nil {
				fail("line %d: send: %v", i, err)
			}
			first := i
			for i < len(lines) && lines[i] != "" && !strings.ContainsAny(lines[i][:1], "><=!~") {
				i++
			}
			for _, w := range expectedReplies(t, lines[first:i]) {
				g, err := cur.reply(strings.HasPrefix(w[0], "*keys:"))
				got = append(got, g...)
				if err != nil {
					fail("line %d: reading the reply to be %q: %v", i, w[0], err)
				}
				if strings.Join(g, "\n") != strings.Join(w, "\n") {
					fail("line %d: got\n%s\nwant\n%s", i, strings.Join(g, "\n"), strings.Join(w, "\n"))
				}
			}
		default:
			t.Fatalf("script line %d: %q follows no send", i, line)
		}
	}
	if tr.after != nil {
		tr.after(t, s)
	}
}

// walOrder reads the log in dir as a crashed server left it and names
// its records in append order.
func walOrder(t *testing.T, dir string) []string {
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out []string
	for _, r := range rec.Records {
		if isInsertRecord(r) {
			name, keys, err := decodeInsertRecord(r, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("insert %s %v", name, keys))
		} else {
			out = append(out, string(r))
		}
	}
	return out
}

func plainConfig(t *testing.T) Config {
	return Config{SnapshotDir: t.TempDir()}
}

// asReplica makes s refuse writes the way a follower does, without a
// primary to follow; an empty addr makes it a primary again.
func asReplica(addr string) func(*testing.T, *Server) {
	return func(_ *testing.T, s *Server) {
		s.replMu.Lock()
		s.replPrimary = addr
		s.replMu.Unlock()
		s.isReplica.Store(addr != "")
	}
}

// rung engages an overload rung by hand; with no MaxMemory nothing
// re-evaluates it.
func rung(l overLevel) func(*testing.T, *Server) {
	return func(_ *testing.T, s *Server) { s.over.level.Store(int32(l)) }
}

// busyTranscript holds the only admission slot with a command parked in
// the testPanic hook, and shows who is refused and who is exempt.
func busyTranscript() transcript {
	var held, release chan struct{}
	return transcript{
		name: "busy",
		cfg: func(t *testing.T) Config {
			held, release = make(chan struct{}), make(chan struct{})
			testPanic = func(cmd Command) {
				if cmd.Name == "SKETCH.CARD" && len(cmd.Args) == 1 && cmd.Args[0] == "hold-slot" {
					close(held)
					<-release
				}
			}
			t.Cleanup(func() { testPanic = nil })
			return Config{MaxInflight: 1, CommandTimeout: 50 * time.Millisecond}
		},
		hooks: map[string]func(*testing.T, *Server){
			"held":    func(*testing.T, *Server) { <-held },
			"release": func(*testing.T, *Server) { close(release) },
			"sketch": func(t *testing.T, s *Server) {
				if err := s.reg.Create("b", "bloom", map[string]string{"bits": "4096", "window": "1024"}); err != nil {
					t.Fatal(err)
				}
			},
		},
		script: `
! sketch
= holder
> SKETCH.CARD hold-slot
! held
= a
> PING
-ERR BUSY too many in-flight commands; retry
> SKETCH.INSERT b 1
-ERR BUSY too many in-flight commands; retry
> MINSERT b 1 2
-ERR BUSY too many in-flight commands; retry
> SKETCH.QUERY b 1
-ERR BUSY too many in-flight commands; retry
> SKETCH.CARD b
-ERR BUSY too many in-flight commands; retry
> SKETCH.DROP b
-ERR BUSY too many in-flight commands; retry
> REPLCONF listening-port 7000
+OK
= p
> PSYNC ?
-ERR PSYNC requires a WAL (-wal) on the primary
~ closed
= m
> MONITOR
+OK
! release
= holder
<
-ERR no such sketch "hold-slot"
= a
> PING
+PONG
> SKETCH.INSERT b 1
:1
`}
}

// pipelineTranscript sends inserts, reads, a drop and a create of one
// name in a single write to a server with a WAL, then crashes it: the
// log holds the mutations in request order, and replaying it gives the
// state the live server had.
func pipelineTranscript() transcript {
	var dir string
	return transcript{
		name: "pipeline",
		cfg: func(t *testing.T) Config {
			dir = t.TempDir()
			return Config{WALDir: dir}
		},
		script: `
= a
> SKETCH.CREATE b bloom bits=4096 window=1024 shards=2
+OK
>> MINSERT b 1 2 3
>> SKETCH.INSERT b 4
>> SKETCH.STATS b
>> SKETCH.QUERY b 4
>> SKETCH.DROP b
>> SKETCH.QUERY b 4
>> MINSERT b 5
>> SKETCH.CREATE b bloom bits=8192 window=1024 shards=2
>> MINSERT b 6 7
>> SKETCH.QUERY b 4
> SKETCH.QUERY b 7
:3
:1
*14
+kind=bloom
+shards=2
+window=1024
+tcycle=4096
+inserts=4
+memory_bits=4160
+resident_bytes=1024
+cells=4096
+filled_cells=31
+fill_ratio=0.0076
+cycle_position=0.0010
+young_cells=1024
+perfect_cells=0
+aged_cells=3072
:1
+OK
-ERR no such sketch "b"
-ERR no such sketch "b"
+OK
:2
:0
:1
`,
		after: func(t *testing.T, s *Server) {
			live := registryImage(t, s)
			s.Abort()
			want := []string{
				"SKETCH.CREATE b bloom bits=4096 window=1024 shards=2",
				"insert b [1 2 3 4]",
				"SKETCH.DROP b",
				"SKETCH.CREATE b bloom bits=8192 window=1024 shards=2",
				"insert b [6 7]",
			}
			if got := walOrder(t, dir); !slices.Equal(got, want) {
				t.Fatalf("the log holds\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			s2 := startWAL(t, dir, nil, 0)
			sameImage(t, "replayed registry", registryImage(t, s2), live)
		},
	}
}

var transcripts = []transcript{
	{name: "verbs", cfg: plainConfig, script: `
= a
> PING
+PONG
> ping
+PONG
> PiNg extra
+PONG
>
> \t  \r
> PING\x01
-ERR control byte 0x01 in command
> PING$ARGS129
-ERR too many arguments (129 > 128)
> NOSUCH
-ERR unknown command "NOSUCH"
> nosuch with args
-ERR unknown command "NOSUCH"
> SKETCH.CREATE
-ERR SKETCH.CREATE: want name kind [param=value ...]
> SKETCH.CREATE b
-ERR SKETCH.CREATE: want name kind [param=value ...]
> SKETCH.CREATE b bloom bits=4096 window=1024 shards=2
+OK
> sketch.create c cm counters=1024 window=1024 shards=2 seed=7
+OK
> Sketch.Create h hll registers=64 window=1024 shards=2
+OK
> SKETCH.CREATE b bloom
-ERR sketch "b" already exists
> SKETCH.CREATE x nosuchkind
-ERR unknown sketch kind "nosuchkind" (want bloom, cm or hll)
> SKETCH.CREATE x bloom bits
-ERR expected param=value, got "bits"
> SKETCH.CREATE bad/name bloom
-ERR invalid sketch name "bad/name"
> SKETCH.INSERT
-ERR SKETCH.INSERT: want name key [key ...]
> SKETCH.INSERT b
-ERR SKETCH.INSERT: want name key [key ...]
> SKETCH.INSERT b 1 2 3
:3
> sketch.insert b alice
:1
> MINSERT
-ERR MINSERT: want name key [key ...]
> MINSERT c
-ERR MINSERT: want name key [key ...]
> MINSERT c 5 5 5 bob
:4
> minsert h 1 2 3 4
:4
> SKETCH.INSERT nosuch 1
-ERR no such sketch "nosuch"
> MINSERT nosuch 1
-ERR no such sketch "nosuch"
> SKETCH.INSERT b 1$ARGS129
-ERR too many arguments (131 > 128)
> SKETCH.QUERY
-ERR SKETCH.QUERY: want name key
> SKETCH.QUERY b
-ERR SKETCH.QUERY: want name key
> SKETCH.QUERY b 1
:1
> SKETCH.QUERY b 1 2
-ERR SKETCH.QUERY: want name key
> sketch.query b alice
:1
> SKETCH.QUERY b carol
:0
> SKETCH.QUERY c 5
:3
> SKETCH.QUERY h 1
-ERR hll answers SKETCH.CARD, not SKETCH.QUERY
> SKETCH.QUERY nosuch 1
-ERR no such sketch "nosuch"
> SKETCH.CARD
-ERR SKETCH.CARD: want name
> SKETCH.CARD h
+7.1405936420547125
> SKETCH.CARD h h
-ERR SKETCH.CARD: want name
> sketch.card b
-ERR bloom does not estimate cardinality; use hll
> SKETCH.CARD nosuch
-ERR no such sketch "nosuch"
> SKETCH.STATS
-ERR SKETCH.STATS: want name|*
> SKETCH.STATS b
*14
+kind=bloom
+shards=2
+window=1024
+tcycle=4096
+inserts=4
+memory_bits=4160
+resident_bytes=1024
+cells=4096
+filled_cells=31
+fill_ratio=0.0076
+cycle_position=0.0010
+young_cells=1024
+perfect_cells=0
+aged_cells=3072
> SKETCH.STATS b b
-ERR SKETCH.STATS: want name|*
> SKETCH.STATS *
*3
+b kind=bloom shards=2 window=1024 inserts=4 fill_ratio=0.0076 cycle_position=0.0010 young=1024 perfect=0 aged=3072
+c kind=cm shards=2 window=1024 inserts=4 fill_ratio=0.0156 cycle_position=0.0020 young=512 perfect=64 aged=448
+h kind=hll shards=2 window=1024 inserts=4 fill_ratio=0.0625 cycle_position=0.0033 young=54 perfect=0 aged=10
> SKETCH.STATS nosuch
-ERR no such sketch "nosuch"
> SKETCH.AUDIT
-ERR SKETCH.AUDIT: want name|* [RESET]
> SKETCH.AUDIT b
*1
+enabled=false
> SKETCH.AUDIT b RESET
-ERR SKETCH.AUDIT: auditing is disabled (start shed with -audit-sample)
> SKETCH.AUDIT b RESET extra
-ERR SKETCH.AUDIT: want name|* [RESET]
> SKETCH.AUDIT b BOGUS
-ERR SKETCH.AUDIT: unknown subcommand "BOGUS" (want RESET)
> SKETCH.AUDIT *
*0
> SKETCH.AUDIT * RESET
-ERR SKETCH.AUDIT: RESET takes a sketch name, not *
> SKETCH.AUDIT nosuch
-ERR no such sketch "nosuch"
> SKETCH.LIST
*3
+b kind=bloom shards=2 window=1024 inserts=4 memory_kb=0.5
+c kind=cm shards=2 window=1024 inserts=4 memory_kb=4.0
+h kind=hll shards=2 window=1024 inserts=4 memory_kb=0.0
> SKETCH.LIST extra
*3
+b kind=bloom shards=2 window=1024 inserts=4 memory_kb=0.5
+c kind=cm shards=2 window=1024 inserts=4 memory_kb=4.0
+h kind=hll shards=2 window=1024 inserts=4 memory_kb=0.0
> SKETCH.SAVE
-ERR SKETCH.SAVE: want name [file]
> SKETCH.SAVE b
+OK
> SKETCH.SAVE b copy
+OK
> SKETCH.SAVE b copy extra
-ERR SKETCH.SAVE: want name [file]
> SKETCH.SAVE nosuch
-ERR no such sketch "nosuch"
> SKETCH.SAVE b ../evil
-ERR invalid snapshot file name "../evil" (bare name, no path)
> SKETCH.LOAD
-ERR SKETCH.LOAD: want name [file]
> SKETCH.LOAD b2 copy
+OK
> SKETCH.LOAD b
+OK
> SKETCH.LOAD b copy extra
-ERR SKETCH.LOAD: want name [file]
> SKETCH.LOAD b3 nosuchfile
-ERR open DIR/nosuchfile.she: no such file or directory
> SKETCH.QUERY b2 alice
:1
> SKETCH.DROP
-ERR SKETCH.DROP: want name
> SKETCH.DROP b2
+OK
> SKETCH.DROP b2
-ERR no such sketch "b2"
> SKETCH.DROP b c
-ERR SKETCH.DROP: want name
> SLOWLOG
*0
> SLOWLOG GET
*0
> SLOWLOG GET 5
*0
> SLOWLOG GET 5 6
-ERR SLOWLOG GET: want at most one count argument
> SLOWLOG GET x
-ERR SLOWLOG GET: bad count "x"
> SLOWLOG LEN
:0
> slowlog len extra
:0
> SLOWLOG RESET
+OK
> SLOWLOG BOGUS
-ERR SLOWLOG: unknown subcommand "BOGUS" (want GET, LEN or RESET)
> TRACE GET
*0
> TRACE GET zz
-ERR TRACE GET: bad trace id "zz" (want hex)
> TRACE GET 00000000000000aa
-ERR TRACE GET: no retained trace 00000000000000aa (evicted, reset, or never sampled)
> TRACE GET SLOWEST
*0
> TRACE GET SLOWEST 2
*0
> TRACE GET SLOWEST 2 3
-ERR TRACE GET SLOWEST: want at most one count argument
> TRACE GET a b
-ERR TRACE GET: want no argument, an id, or SLOWEST [n]
> TRACE SAMPLE
:0
> TRACE SAMPLE x
-ERR TRACE SAMPLE: bad rate "x" (want a non-negative 1-in-N integer)
> TRACE SAMPLE 1 2
-ERR TRACE SAMPLE: want at most one rate argument
> TRACE RESET
+OK
> TRACE RESET x
-ERR TRACE RESET takes no arguments
> TRACE BOGUS
-ERR TRACE: unknown subcommand "BOGUS" (want GET, SAMPLE or RESET)
> HOTKEYS
-ERR HOTKEYS: traffic sampling is disabled (start shed with -traffic-sample)
> HOTKEYS b
-ERR HOTKEYS: traffic sampling is disabled (start shed with -traffic-sample)
> HOTKEYS b 5
-ERR HOTKEYS: traffic sampling is disabled (start shed with -traffic-sample)
> HOTKEYS b 5 6
-ERR HOTKEYS: want [name] [k]
> CLIENT
-ERR CLIENT: want LIST, KILL addr, GETNAME or SETNAME name
> CLIENT GETNAME
+
> CLIENT GETNAME x
-ERR CLIENT GETNAME takes no arguments
> CLIENT SETNAME
-ERR CLIENT SETNAME: want name
> CLIENT SETNAME me
+OK
> CLIENT SETNAME me too
-ERR CLIENT SETNAME: want name
> CLIENT SETNAME bad/name
-ERR CLIENT SETNAME: invalid name "bad/name" (same alphabet as sketch names)
> CLIENT GETNAME
+me
> CLIENT LIST x
-ERR CLIENT LIST takes no arguments
> CLIENT KILL
-ERR CLIENT KILL: want addr
> CLIENT KILL 1.2.3.4:5
-ERR CLIENT KILL: no such client "1.2.3.4:5"
> CLIENT KILL a b
-ERR CLIENT KILL: want addr
> CLIENT BOGUS
-ERR CLIENT: unknown subcommand "BOGUS" (want LIST, KILL, GETNAME or SETNAME)
> client list
*1
+id=# addr=ADDR name=me age=# idle=# in=# out=# cmds=109 keys=14 batches=10 verb=CLIENT replica=false monitor=false per_verb=CLIENT:14,HOTKEYS:4,MINSERT:5,OTHER:2,PING:3,SKETCH.AUDIT:8,SKETCH.CARD:5,SKETCH.CREATE:9,SKETCH.DROP:4,SKETCH.INSERT:5,SKETCH.LIST:2,SKETCH.LOAD:5,SKETCH.QUERY:10,SKETCH.SAVE:6,SKETCH.STATS:5,SLOWLOG:9,TRACE:13
> ROLE
*1
+role=primary replicas=0
> ROLE extra
*1
+role=primary replicas=0
> REPLICAOF
-ERR REPLICAOF: want host port | NO ONE
> REPLICAOF NO
-ERR REPLICAOF: want host port | NO ONE
> REPLICAOF NO ONE
+OK
> replicaof no one
+OK
> REPLICAOF 127.0.0.1 1
-ERR REPLICAOF requires a WAL (-wal): a replica's acks promise local durability
> REPLICAOF a b c
-ERR REPLICAOF: want host port | NO ONE
> REPLCONF
+OK
> REPLCONF listening-port 7000
+OK
> REPLCONF a b c
+OK
> CLIENT LIST
*1
+id=# addr=ADDR name=me age=# idle=# in=# out=# cmds=121 keys=14 batches=10 verb=CLIENT replica=false monitor=false per_verb=CLIENT:15,HOTKEYS:4,MINSERT:5,OTHER:2,PING:3,REPLCONF:3,REPLICAOF:6,ROLE:2,SKETCH.AUDIT:8,SKETCH.CARD:5,SKETCH.CREATE:9,SKETCH.DROP:4,SKETCH.INSERT:5,SKETCH.LIST:2,SKETCH.LOAD:5,SKETCH.QUERY:10,SKETCH.SAVE:6,SKETCH.STATS:5,SLOWLOG:9,TRACE:13
> INFO
*keys: uptime_seconds role sketches connected_replicas clients_connected clients_monitor clients_bytes_in clients_bytes_out traffic_sample traffic_sampled_total monitor_dropped_total commands_per_sec batch_applies_total batch_commands_total batch_keys_total checkpoint_errors checkpoints clients_killed commands_total connections_active connections_rejected connections_total errors_total inserts_total overload_busy_rejects overload_oom_inserts overload_refused_creates overload_slowlog_dropped overload_transitions panics_recovered repl_applied_records repl_full_syncs repl_partial_syncs repl_promotions repl_slow_replica_drops repl_sync_timeouts slow_commands_total snapshots_loaded snapshots_quarantined snapshots_saved wal_bytes wal_errors wal_records wal_replay_skipped wal_replayed_records wal_segments_quarantined wal_torn_bytes
> INFO extra
*keys: uptime_seconds role sketches connected_replicas clients_connected clients_monitor clients_bytes_in clients_bytes_out traffic_sample traffic_sampled_total monitor_dropped_total commands_per_sec batch_applies_total batch_commands_total batch_keys_total checkpoint_errors checkpoints clients_killed commands_total connections_active connections_rejected connections_total errors_total inserts_total overload_busy_rejects overload_oom_inserts overload_refused_creates overload_slowlog_dropped overload_transitions panics_recovered repl_applied_records repl_full_syncs repl_partial_syncs repl_promotions repl_slow_replica_drops repl_sync_timeouts slow_commands_total snapshots_loaded snapshots_quarantined snapshots_saved wal_bytes wal_errors wal_records wal_replay_skipped wal_replayed_records wal_segments_quarantined wal_torn_bytes
> QUIT extra
+OK
~ closed
= psync
> PSYNC ?
-ERR PSYNC requires a WAL (-wal) on the primary
~ closed
= psync2
> PSYNC
-ERR PSYNC requires a WAL (-wal) on the primary
~ closed
= psync3
> psync 1 2
-ERR PSYNC requires a WAL (-wal) on the primary
~ closed
= monitor
> MONITOR extra
+OK
= monitor2
> monitor
+OK
= b
> PING
+PONG
`},
	{name: "replica",
		cfg: func(t *testing.T) Config {
			return Config{WALDir: t.TempDir(), SnapshotDir: t.TempDir()}
		},
		hooks: map[string]func(*testing.T, *Server){
			"replica": asReplica("10.0.0.1:6380"), "primary": asReplica(""),
		},
		script: `
= a
> SKETCH.CREATE b bloom bits=4096 window=1024 shards=2
+OK
> SKETCH.INSERT b 1
:1
> SKETCH.SAVE b
+OK
! replica
> SKETCH.CREATE x bloom
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
> SKETCH.CREATE
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
> SKETCH.DROP b
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
> SKETCH.DROP
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
> SKETCH.INSERT b 2
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
> SKETCH.INSERT
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
> MINSERT b 2 3
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
> minsert nosuch 2
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
> SKETCH.LOAD b
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
> SKETCH.LOAD
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
>> SKETCH.QUERY b 1
>> SKETCH.INSERT b 2
> SKETCH.QUERY b 2
:1
-ERR READONLY replica of 10.0.0.1:6380; mutations go to the primary
:0
> SKETCH.SAVE b
+OK
= p
> PSYNC ?
-ERR this node is a replica; chained replication is not supported
~ closed
! primary
= q
> PSYNC 1 2
-ERR PSYNC: want ? or gen seg off
~ closed
= r
> PSYNC 1 2 x
-ERR repl: bad cursor "1" "2" "x"
~ closed
= a
> SKETCH.INSERT b 2
:1
`},
	{name: "overload", cfg: plainConfig,
		hooks: map[string]func(*testing.T, *Server){
			"refuse_create": rung(overRefuseCreate), "refuse_insert": rung(overRefuseInsert), "none": rung(overNone),
		},
		script: `
= a
> SKETCH.CREATE b bloom bits=4096 window=1024 shards=2
+OK
> SKETCH.SAVE b
+OK
! refuse_create
> SKETCH.CREATE x bloom
-ERR OOM memory budget exceeded (refuse_create); refusing new sketch allocations
> SKETCH.CREATE
-ERR OOM memory budget exceeded (refuse_create); refusing new sketch allocations
> SKETCH.LOAD b
-ERR OOM memory budget exceeded (refuse_create); refusing new sketch allocations
> SKETCH.LOAD
-ERR OOM memory budget exceeded (refuse_create); refusing new sketch allocations
> SKETCH.INSERT b 1
:1
> SKETCH.DROP nosuch
-ERR no such sketch "nosuch"
! refuse_insert
> SKETCH.INSERT b 2
-ERR OOM memory budget exceeded; inserts refused (queries still served)
> SKETCH.INSERT
-ERR OOM memory budget exceeded; inserts refused (queries still served)
> MINSERT b 2 3
-ERR OOM memory budget exceeded; inserts refused (queries still served)
> MINSERT nosuch 2
-ERR OOM memory budget exceeded; inserts refused (queries still served)
> SKETCH.CREATE x bloom
-ERR OOM memory budget exceeded (refuse_insert); refusing new sketch allocations
> SKETCH.LOAD b
-ERR OOM memory budget exceeded (refuse_insert); refusing new sketch allocations
>> SKETCH.QUERY b 1
>> MINSERT b 2
> SKETCH.QUERY b 2
:1
-ERR OOM memory budget exceeded; inserts refused (queries still served)
:0
> SKETCH.DROP b
+OK
! none
> SKETCH.CREATE b bloom bits=4096 window=1024 shards=2
+OK
> MINSERT b 2
:1
`},
	busyTranscript(),
	pipelineTranscript(),
	{name: "quit", cfg: plainConfig, script: `
= a
>> PING
>> QUIT
> PING
+PONG
+OK
~ closed
`},
	// A WAL node without a snapshot directory: SAVE and LOAD, the size
	// caps, and REPLICAOF to a port no follower can dial are refused.
	{name: "errors",
		cfg: func(t *testing.T) Config { return Config{WALDir: t.TempDir()} },
		script: `
= a
> SKETCH.CREATE h hll registers=4096 window=65536
+OK
> SKETCH.SAVE h x y
-ERR SKETCH.SAVE: want name [file]
> SKETCH.SAVE h
-ERR no snapshot directory configured; SKETCH.SAVE/LOAD are disabled
> SKETCH.LOAD x
-ERR no snapshot directory configured; SKETCH.SAVE/LOAD are disabled
> SKETCH.CREATE big bloom bits=1099511627776
-ERR bits=1099511627776 exceeds maximum 1073741824
> SKETCH.CREATE big cm counters=18446744073709551615
-ERR counters=18446744073709551615 exceeds maximum 67108864
> SKETCH.CREATE big hll registers=99999999999 shards=4
-ERR registers=99999999999 exceeds maximum 16777216
> SKETCH.CREATE big bloom shards=1048576
-ERR shards=1048576 exceeds maximum 4096
> REPLICAOF 127.0.0.1 x
-ERR REPLICAOF: bad port "x" (want 1-65535)
> REPLICAOF 127.0.0.1 0
-ERR REPLICAOF: bad port "0" (want 1-65535)
> REPLICAOF 127.0.0.1 65536
-ERR REPLICAOF: bad port "65536" (want 1-65535)
> ROLE
*1
+role=primary replicas=0
> SKETCH.INSERT h 1
:1
> SKETCH.CREATE w bloom bits=4096 window=1000 shards=3
+OK
> SKETCH.LIST
*2
+h kind=hll shards=8 window=65536 inserts=1 memory_kb=3.0
+w kind=bloom shards=3 window=999 inserts=0 memory_kb=0.5
`},
	{name: "slowlog",
		cfg: func(t *testing.T) Config {
			return Config{SlowThreshold: time.Nanosecond,
				Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))}
		},
		script: `
= a
> sketch.create   b  bloom bits=4096   window=1024 shards=2
+OK
> sketch.insert  b  1\r
:1
> Ping
+PONG
> nosuch  verb
-ERR unknown command "NOSUCH"
> SLOWLOG GET
*4
+id=# time=# duration_us=# addr=ADDR trace=# command="nosuch  verb"
+id=# time=# duration_us=# addr=ADDR trace=# command="Ping"
+id=# time=# duration_us=# addr=ADDR trace=# command="sketch.insert  b  1"
+id=# time=# duration_us=# addr=ADDR trace=# command="sketch.create   b  bloom bits=4096   window=1024 shards=2"
`},
	{name: "monitor",
		cfg: func(t *testing.T) Config {
			return Config{TrafficSample: 1}
		},
		hooks: map[string]func(*testing.T, *Server){
			"subscribed": func(t *testing.T, s *Server) {
				for i := 0; !s.hub.Wants(); i++ {
					if i > 5000 {
						t.Fatal("MONITOR never subscribed")
					}
					time.Sleep(time.Millisecond)
				}
			},
		},
		script: `
= m
> MONITOR
+OK
! subscribed
= a
> sketch.create   b  bloom bits=4096   window=1024 shards=2
+OK
> sketch.insert  b  1\r
:1
> Sketch.Query b 1
:1
> Ping
+PONG
= m
<
+TIME [ADDR] sketch.create   b  bloom bits=4096   window=1024 shards=2
+TIME [ADDR] sketch.insert  b  1
+TIME [ADDR] Sketch.Query b 1
+TIME [ADDR] Ping
`},
}

// TestProtocolTranscript replays every script against a fresh server.
func TestProtocolTranscript(t *testing.T) {
	for _, tr := range transcripts {
		t.Run(tr.name, tr.run)
	}
}
