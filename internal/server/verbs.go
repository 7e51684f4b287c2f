package server

// verbFlags say what the command loop does around a verb's handler.
type verbFlags uint8

const (
	vMutates    verbFlags = 1 << iota // changes sketch state: one that is not an insert re-measures the memory budget (conn.run)
	vWriteGate                        // refused READONLY on a replica
	vAllocGate                        // refused at the refuse_create overload rung and above
	vInsertGate                       // an insert verb (arguments past the name are keys): refused at refuse_insert
	vTakeover                         // the handler takes the connection over for good (conn.slow)
	// vNoAdmit exempts a verb from admission control (Config.MaxInflight).
	// A replication link must not be answered BUSY by the load it exists
	// to protect against, and a takeover handler would hold its slot for
	// the life of the connection — so REPLCONF, PSYNC and MONITOR.
	vNoAdmit
)

// verb is one row of the command table: everything the server knows
// about a wire verb, declared once. A new verb is one row here, one
// index below and one handler.
type verb struct {
	name string
	// usage is the verb with its argument synopsis: the heading of its
	// entry in the README's verb reference (TestVerbReference), and after
	// "want" the arity error.
	usage string
	// min and max bound the argument count; max 0 is no upper bound.
	min, max int
	flags    verbFlags
	// run executes the command and writes its reply to c.w; a returned
	// error becomes the -ERR reply. nil only for OTHER.
	run func(c *conn, cmd Command) error
}

// Verb indices, in the order /metrics lists she_command_seconds and
// CLIENT LIST knows them by. verbOther, last, is every unknown name.
const (
	verbPing = iota
	verbQuit
	verbInfo
	verbSlowlog
	verbList
	verbCreate
	verbDrop
	verbInsert
	verbQuery
	verbCard
	verbStats
	verbAudit
	verbSave
	verbLoad
	verbRole
	verbReplicaof
	verbReplconf
	verbPsync
	verbTrace
	verbMinsert
	verbHotkeys
	verbClient
	verbMonitor
	verbOther
	numVerbs
)

var verbs = [numVerbs]verb{
	verbPing:      {name: "PING", usage: "PING", run: (*conn).cmdPing},
	verbQuit:      {name: "QUIT", usage: "QUIT", run: (*conn).cmdQuit},
	verbInfo:      {name: "INFO", usage: "INFO", run: (*conn).cmdInfo},
	verbSlowlog:   {name: "SLOWLOG", usage: "SLOWLOG [GET [n] | LEN | RESET]", run: (*conn).cmdSlowlog},
	verbList:      {name: "SKETCH.LIST", usage: "SKETCH.LIST", run: (*conn).cmdList},
	verbCreate:    {name: "SKETCH.CREATE", usage: "SKETCH.CREATE name kind [param=value ...]", min: 2, flags: vMutates | vWriteGate | vAllocGate, run: (*conn).cmdCreate},
	verbDrop:      {name: "SKETCH.DROP", usage: "SKETCH.DROP name", min: 1, max: 1, flags: vMutates | vWriteGate, run: (*conn).cmdDrop},
	verbInsert:    {name: "SKETCH.INSERT", usage: "SKETCH.INSERT name key [key ...]", min: 2, flags: vMutates | vWriteGate | vInsertGate, run: (*conn).cmdInsert},
	verbQuery:     {name: "SKETCH.QUERY", usage: "SKETCH.QUERY name key", min: 2, max: 2, run: (*conn).cmdQuery},
	verbCard:      {name: "SKETCH.CARD", usage: "SKETCH.CARD name", min: 1, max: 1, run: (*conn).cmdCard},
	verbStats:     {name: "SKETCH.STATS", usage: "SKETCH.STATS name|*", min: 1, max: 1, run: (*conn).cmdStats},
	verbAudit:     {name: "SKETCH.AUDIT", usage: "SKETCH.AUDIT name|* [RESET]", min: 1, max: 2, run: (*conn).cmdAudit},
	verbSave:      {name: "SKETCH.SAVE", usage: "SKETCH.SAVE name [file]", min: 1, max: 2, run: (*conn).cmdSave},
	verbLoad:      {name: "SKETCH.LOAD", usage: "SKETCH.LOAD name [file]", min: 1, max: 2, flags: vMutates | vWriteGate | vAllocGate, run: (*conn).cmdLoad},
	verbRole:      {name: "ROLE", usage: "ROLE", run: (*conn).cmdRole},
	verbReplicaof: {name: "REPLICAOF", usage: "REPLICAOF host port | NO ONE", min: 2, max: 2, run: (*conn).cmdReplicaof},
	verbReplconf:  {name: "REPLCONF", usage: "REPLCONF [option value]", flags: vNoAdmit, run: (*conn).cmdReplconf},
	verbPsync:     {name: "PSYNC", usage: "PSYNC ? | gen seg off", flags: vTakeover | vNoAdmit, run: (*conn).cmdPsync},
	verbTrace:     {name: "TRACE", usage: "TRACE [GET [id | SLOWEST [n]] | SAMPLE [n] | RESET]", run: (*conn).cmdTrace},
	verbMinsert:   {name: "MINSERT", usage: "MINSERT name key [key ...]", min: 2, flags: vMutates | vWriteGate | vInsertGate, run: (*conn).cmdInsert},
	verbHotkeys:   {name: "HOTKEYS", usage: "HOTKEYS [name] [k]", max: 2, run: (*conn).cmdHotkeys},
	verbClient:    {name: "CLIENT", usage: "CLIENT LIST, KILL addr, GETNAME or SETNAME name", min: 1, run: (*conn).cmdClient},
	verbMonitor:   {name: "MONITOR", usage: "MONITOR", flags: vTakeover | vNoAdmit, run: (*conn).cmdMonitor},
	verbOther:     {name: "OTHER"},
}

// lookupVerb maps a parsed (upper-cased) command name to its row,
// unknown names to OTHER. Only the slow path looks a verb up — the fast
// path scans for its four — so a walk over two dozen rows is enough.
func lookupVerb(name string) int {
	for vi := range verbs {
		if verbs[vi].name == name {
			return vi
		}
	}
	return verbOther
}

// verbNames lists the table's names in index order, for the consumers
// that label by verb: per-client accounting and /metrics.
func verbNames() []string {
	names := make([]string, numVerbs)
	for i := range verbs {
		names[i] = verbs[i].name
	}
	return names
}
