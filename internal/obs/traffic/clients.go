package traffic

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Client is one tracked connection's accounting record. The hot
// counters (bytes, lastActive) are atomics written by the connection
// goroutine and its countConn wrapper; everything else is written
// under the registry mutex or before the connection serves.
type Client struct {
	ID      uint64
	Addr    string
	created time.Time

	name atomic.Pointer[string]

	bytesIn    atomic.Int64
	bytesOut   atomic.Int64
	lastActive atomic.Int64 // unix nanos
	cmds       []atomic.Uint64
	keys       atomic.Uint64 // insert keys accepted
	batches    atomic.Uint64 // fast-path settles

	curVerb atomic.Int32 // index into registry verbs; -1 = none yet
	replica atomic.Bool  // connection became a PSYNC replication channel
	monitor atomic.Bool  // connection became a MONITOR feed

	conn net.Conn // for CLIENT KILL; nil in unit tests
}

// Name returns the client's CLIENT SETNAME name ("" = unset).
func (c *Client) Name() string {
	if p := c.name.Load(); p != nil {
		return *p
	}
	return ""
}

// SetName sets the client's display name.
func (c *Client) SetName(name string) { c.name.Store(&name) }

// Command accounts one slow-path command: per-verb count, current
// verb, activity timestamp. vi indexes the registry's verb table.
func (c *Client) Command(vi int) {
	if c == nil {
		return
	}
	if vi >= 0 && vi < len(c.cmds) {
		c.cmds[vi].Add(1)
	}
	c.curVerb.Store(int32(vi))
	c.lastActive.Store(time.Now().UnixNano())
}

// BatchSettle accounts the fast-path commands a connection handled
// since its last settle: counts, indexed like the registry's verb
// table and accumulated locally by the batch engine, land here in one
// atomic add per verb used, plus the insert-key total, the latest verb
// and one batch tick — the always-on accounting cost of a
// thousand-command pipeline.
func (c *Client) BatchSettle(counts []uint64, last int, keys uint64) {
	if c == nil {
		return
	}
	for vi, n := range counts {
		if n > 0 && vi < len(c.cmds) {
			c.cmds[vi].Add(n)
		}
	}
	c.curVerb.Store(int32(last))
	if keys > 0 {
		c.keys.Add(keys)
	}
	c.batches.Add(1)
	c.lastActive.Store(time.Now().UnixNano())
}

// AddKeys accounts slow-path insert keys.
func (c *Client) AddKeys(n int) {
	if c != nil && n > 0 {
		c.keys.Add(uint64(n))
	}
}

// SetReplica marks the connection as a replication channel (PSYNC
// took it over); CLIENT KILL refuses such links.
func (c *Client) SetReplica() {
	if c != nil {
		c.replica.Store(true)
	}
}

// IsReplica reports whether the link is a replication channel.
func (c *Client) IsReplica() bool { return c != nil && c.replica.Load() }

// SetMonitor marks the connection as a MONITOR feed.
func (c *Client) SetMonitor() {
	if c != nil {
		c.monitor.Store(true)
	}
}

// ClientInfo is one CLIENT LIST row, decoded from the atomics.
type ClientInfo struct {
	ID         uint64
	Addr       string
	Name       string
	Age        time.Duration
	Idle       time.Duration
	BytesIn    int64
	BytesOut   int64
	Keys       uint64
	Batches    uint64
	Verb       string // most recent verb ("" = none yet)
	Cmds       uint64 // total commands
	VerbCounts map[string]uint64
	Replica    bool
	Monitor    bool
}

// Clients is the connection registry, and the server's one list of
// live connections. Registration and listing take the mutex;
// per-command accounting touches only the Client's own atomics.
type Clients struct {
	verbs  []string
	nextID atomic.Uint64

	mu   sync.Mutex
	byID map[uint64]*Client
}

// NewClients returns an empty registry that counts commands by the
// verb table verbs; entry len(verbs)-1 is the catchall.
func NewClients(verbs []string) *Clients { return &Clients{verbs: verbs} }

// Register adds a connection and returns its accounting record.
func (r *Clients) Register(addr string, conn net.Conn) *Client {
	now := time.Now()
	c := &Client{
		ID:      r.nextID.Add(1),
		Addr:    addr,
		created: now,
		cmds:    make([]atomic.Uint64, len(r.verbs)),
		conn:    conn,
	}
	c.curVerb.Store(-1)
	c.lastActive.Store(now.UnixNano())
	r.mu.Lock()
	if r.byID == nil {
		r.byID = make(map[uint64]*Client)
	}
	r.byID[c.ID] = c
	r.mu.Unlock()
	return c
}

// Unregister removes a closed connection.
func (r *Clients) Unregister(c *Client) {
	r.mu.Lock()
	delete(r.byID, c.ID)
	r.mu.Unlock()
}

// Count returns the number of registered connections.
func (r *Clients) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// snapshot copies the registry under the mutex, sorted by ID (accept
// order) so CLIENT LIST output is stable.
func (r *Clients) snapshot() []*Client {
	r.mu.Lock()
	out := make([]*Client, 0, len(r.byID))
	for _, c := range r.byID {
		out = append(out, c)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// info decodes one client's atomics into a row.
func (r *Clients) info(c *Client, now time.Time) ClientInfo {
	in := ClientInfo{
		ID:       c.ID,
		Addr:     c.Addr,
		Name:     c.Name(),
		Age:      now.Sub(c.created),
		Idle:     now.Sub(time.Unix(0, c.lastActive.Load())),
		BytesIn:  c.bytesIn.Load(),
		BytesOut: c.bytesOut.Load(),
		Keys:     c.keys.Load(),
		Batches:  c.batches.Load(),
		Replica:  c.replica.Load(),
		Monitor:  c.monitor.Load(),
	}
	if vi := c.curVerb.Load(); vi >= 0 && int(vi) < len(r.verbs) {
		in.Verb = r.verbs[vi]
	}
	for i := range c.cmds {
		if n := c.cmds[i].Load(); n > 0 {
			if in.VerbCounts == nil {
				in.VerbCounts = make(map[string]uint64)
			}
			in.VerbCounts[r.verbs[i]] = n
			in.Cmds += n
		}
	}
	return in
}

// List returns every connection's accounting row, accept order.
func (r *Clients) List() []ClientInfo {
	now := time.Now()
	snap := r.snapshot()
	out := make([]ClientInfo, len(snap))
	for i, c := range snap {
		out[i] = r.info(c, now)
	}
	return out
}

// Totals sums bytes in/out across current connections for INFO.
func (r *Clients) Totals() (bytesIn, bytesOut int64, monitors int) {
	for _, c := range r.snapshot() {
		bytesIn += c.bytesIn.Load()
		bytesOut += c.bytesOut.Load()
		if c.monitor.Load() {
			monitors++
		}
	}
	return bytesIn, bytesOut, monitors
}

// Conns returns every registered connection, for a shutdown to poke or
// close.
func (r *Clients) Conns() []net.Conn {
	var out []net.Conn
	for _, c := range r.snapshot() {
		if c.conn != nil {
			out = append(out, c.conn)
		}
	}
	return out
}

// Find returns the client with the given remote address (exact
// match); nil if none. Addresses are unique per live connection.
func (r *Clients) Find(addr string) *Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.byID {
		if c.Addr == addr {
			return c
		}
	}
	return nil
}

// Kill closes the client's connection; its goroutine unblocks with a
// read error and unwinds normally. The caller is responsible for the
// replica-link refusal policy.
func (c *Client) Kill() error {
	if c == nil || c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// countConn wraps a net.Conn, counting bytes into the client's
// atomics — one add per syscall, not per command, so the accounting
// cost on a pipelining connection is amortized across the batch.
type countConn struct {
	net.Conn
	c *Client
}

// CountConn returns conn with its reads and writes accounted to c.
func CountConn(conn net.Conn, c *Client) net.Conn {
	if c == nil {
		return conn
	}
	return &countConn{Conn: conn, c: c}
}

func (cc *countConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	if n > 0 {
		cc.c.bytesIn.Add(int64(n))
	}
	return n, err
}

func (cc *countConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	if n > 0 {
		cc.c.bytesOut.Add(int64(n))
	}
	return n, err
}
