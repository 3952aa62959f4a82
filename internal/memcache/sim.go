package memcache

import (
	"errors"
	"time"

	"imca/internal/fabric"
	"imca/internal/flight"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// ServiceName is the fabric service the simulated MCD registers.
const ServiceName = "mcd"

// Simulated per-operation service costs for a 2008-era memcached: command
// parsing + hash lookup + slab bookkeeping per key, plus a copy cost per
// byte moved in or out of the cache.
const (
	perKeyServiceTime = 6 * time.Microsecond
	// perByteCopyNanos models ~2 GB/s memory copies (0.5 ns/byte).
	perByteCopyNanos = 0.5
)

func copyTime(n int64) sim.Duration {
	return sim.Duration(float64(n) * perByteCopyNanos)
}

// Wire message types for the simulated memcached protocol. WireSize values
// approximate the text protocol's framing.

// GetReq requests one or more keys. A pooled request (op non-nil) belongs
// to a client-side getOp; the fabric recycles it when the call's frame
// retires, which is what returns the op to its pool.
type GetReq struct {
	Keys []string

	op *getOp
}

// Recycle implements fabric.Recyclable.
func (r *GetReq) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *GetReq) WireSize() int64 {
	n := int64(8)
	for _, k := range r.Keys {
		n += int64(len(k)) + 1
	}
	return n
}

// GetResp carries the found items. Down reports that the daemon is dead
// (connection refused); the caller treats every key as a miss. A pooled
// response (op non-nil) belongs to a server-side srvOp and its Items point
// into that op's buffers: valid through the continuation that receives
// it, reclaimed when the fabric recycles the response.
type GetResp struct {
	Items []*Item
	Down  bool

	op *srvOp
}

// Recycle implements fabric.Recyclable.
func (r *GetResp) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *GetResp) WireSize() int64 {
	n := int64(8)
	for _, it := range r.Items {
		n += int64(len(it.Key)) + it.Value.Len() + 40
	}
	return n
}

// SetReq stores one item (always an unconditional set, as IMCa uses).
// Pooled requests carry their client-side setOp, as GetReq does.
type SetReq struct {
	Item *Item

	op *setOp
}

// Recycle implements fabric.Recyclable.
func (r *SetReq) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *SetReq) WireSize() int64 {
	return int64(len(r.Item.Key)) + r.Item.Value.Len() + 40
}

// SetResp acknowledges a store. Pooled responses carry their srvOp, as
// GetResp does.
type SetResp struct {
	Err  string
	Down bool

	op *srvOp
}

// Recycle implements fabric.Recyclable.
func (r *SetResp) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *SetResp) WireSize() int64 { return 8 + int64(len(r.Err)) }

// DelReq deletes one key. Pooled requests carry their client-side delOp.
type DelReq struct {
	Key string

	op *delOp
}

// Recycle implements fabric.Recyclable.
func (r *DelReq) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *DelReq) WireSize() int64 { return 8 + int64(len(r.Key)) }

// DelResp acknowledges a delete. Pooled responses carry their srvOp.
type DelResp struct {
	Found bool
	Down  bool

	op *srvOp
}

// Recycle implements fabric.Recyclable.
func (r *DelResp) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *DelResp) WireSize() int64 { return 8 }

// SimServer is a memcached daemon attached to a fabric node inside the
// simulation. Like memcached 1.2 of the paper's era, the daemon itself is
// single-threaded: cache operations serialize on one event loop, while
// kernel TCP processing (the fabric's host overhead) uses the node's other
// cores.
type SimServer struct {
	node   *fabric.Node
	store  *Store
	daemon *sim.Resource
	down   bool
	// slow > 1 stretches every service-time charge by that factor: the
	// gray-failure mode where the daemon answers correctly but slowly
	// (swapping, a sick disk under the slab allocator, a hot neighbor).
	slow float64

	// ops is the free list of pooled request state machines (see
	// srvtask.go).
	ops []*srvOp
}

// NewSimServer starts an MCD on node with the given memory limit.
func NewSimServer(node *fabric.Node, limitBytes int64) *SimServer {
	env := node.Network().Env()
	s := &SimServer{
		node:   node,
		store:  NewStore(limitBytes, func() int64 { return int64(env.Now().Seconds()) }),
		daemon: sim.NewResource(env, 1),
	}
	node.Handle(ServiceName, s.handle)
	return s
}

// Node returns the fabric node the daemon runs on.
func (s *SimServer) Node() *fabric.Node { return s.node }

// Store exposes the cache engine for stats inspection.
func (s *SimServer) Store() *Store { return s.store }

// Fail kills the daemon: its contents are lost and requests are refused
// until Recover. The paper's §4.4 argues MCD failures never affect
// correctness because writes are persistent at the server first.
func (s *SimServer) Fail() {
	s.down = true
	s.store.FlushAll()
}

// Recover restarts the daemon (empty, as a restarted memcached would be).
func (s *SimServer) Recover() { s.down = false }

// Down reports whether the daemon is failed.
func (s *SimServer) Down() bool { return s.down }

// SetSlowdown makes the daemon gray: every service-time charge is
// stretched by f (> 1). The daemon still answers correctly — no errors,
// no Down replies — which is exactly why consecutive-failure ejection
// never catches it and latency suspicion exists. f <= 1 restores full
// speed.
func (s *SimServer) SetSlowdown(f float64) {
	if f <= 1 {
		s.slow = 0
		return
	}
	s.slow = f
}

// Slowdown returns the current gray stretch factor (1 when healthy).
func (s *SimServer) Slowdown() float64 {
	if s.slow > 1 {
		return s.slow
	}
	return 1
}

// stretch applies the gray slowdown to one service-time charge.
func (s *SimServer) stretch(d sim.Duration) sim.Duration {
	if s.slow > 1 {
		return sim.Duration(float64(d) * s.slow)
	}
	return d
}

// reqName names a request type for spans.
func reqName(req fabric.Msg) string {
	switch req.(type) {
	case *GetReq:
		return "get"
	case *SetReq:
		return "set"
	case *DelReq:
		return "delete"
	}
	return "?"
}

// The daemon's request handler is task-native; see srvtask.go.

// SimClient accesses a bank of simulated MCDs from one fabric node,
// distributing keys with a Selector (CRC32 by default, matching
// libmemcache).
type SimClient struct {
	node     *fabric.Node
	servers  []*SimServer
	selector Selector
	// bindings pre-resolve the mcd service on each server, so the per-call
	// path never repeats the lookup or the cross-network check.
	bindings []*fabric.Binding
	// Free lists of pooled task-engine operation frames (see simtask.go).
	getOps []*getOp
	setOps []*setOp
	delOps []*delOp
	// downReplies counts requests that came back with Down set (connection
	// refused by a failed daemon). Surfaced through BankStats.
	downReplies uint64
	// deadlineMisses counts requests abandoned because the calling
	// operation's virtual-time deadline expired — the paper's "fall back to
	// the server" path.
	deadlineMisses uint64
	// unreachables counts requests that failed because the link to the
	// server was cut (fabric.ErrUnreachable).
	unreachables uint64

	// Ejection state, active only after SetEjection (see health.go).
	ejectAfter                          int
	probeBackoff                        sim.Duration
	health                              []serverHealth
	ejects, probes, readmits, fastFails uint64

	// Replication: replicas >= 2 keeps a second copy of every key on the
	// selector's replica server (see SetReplication). 0 is the paper's
	// single-copy bank.
	replicas  int
	failovers uint64
	// Latency suspicion state, active only after SetSuspicion (see
	// health.go): gray (slow-but-alive) servers are soft-ejected when
	// their service-time EWMA crosses suspectAfter.
	suspectAfter            sim.Duration
	suspectBackoff          sim.Duration
	suspects, suspectClears uint64
	// fnGetFailover dispatches Get's replica retry. It is a stored
	// function value on purpose: the allocfree walker follows direct
	// calls only, so the exceptional failover leg stays off the audited
	// common path (the same sanctioned idiom as the kernel's ev.fn).
	fnGetFailover func(t *sim.Task, next int, key string, k func(*Item, bool))

	// Per-bank latency distributions (get/set/getmulti entry to exit,
	// fast-fails included), registered by Register; nil no-ops otherwise.
	getHist, setHist, multiHist *telemetry.Hist
	// fr, when attached, records deadline expiries and ejection
	// transitions for post-mortems; nil (the default) is a no-op.
	fr *flight.Recorder
}

// NewSimClient returns a client on node addressing the given MCD bank.
func NewSimClient(node *fabric.Node, servers []*SimServer) *SimClient {
	if len(servers) == 0 {
		panic("memcache: empty MCD bank")
	}
	c := &SimClient{node: node, servers: servers, selector: CRC32Selector{}}
	c.bindings = make([]*fabric.Binding, len(servers))
	for i, s := range servers {
		c.bindings[i] = node.Bind(s.node, ServiceName)
	}
	c.fnGetFailover = c.failoverGet
	return c
}

// SetSelector replaces the key distribution function.
func (c *SimClient) SetSelector(s Selector) { c.selector = s }

// SetReplication sets the number of copies kept per key. r >= 2 writes
// every Set/Delete through to the selector's replica server and lets Get
// fail over to that copy when the primary is ejected, suspected,
// unreachable, or answers Down. r <= 1 (the default) is the paper's
// single-copy bank. Only R=2 is modeled; larger r behaves as 2.
func (c *SimClient) SetReplication(r int) { c.replicas = r }

// replicaNext returns the replica server for key given its primary, or -1
// when replication is off, the bank has one node, or the selector mapped
// both copies to the same daemon.
func (c *SimClient) replicaNext(key string, primary int) int {
	if c.replicas < 2 || len(c.servers) < 2 {
		return -1
	}
	n := len(c.servers)
	r := (primary + 1) % n
	if rs, ok := c.selector.(ReplicaSelector); ok {
		r = rs.Replica(key, n)
	}
	if r == primary {
		return -1
	}
	return r
}

// SetFlight attaches a flight recorder: deadline expiries and ejection
// state transitions append fixed-size records to it. Appending costs no
// virtual time, so an attached recorder never changes results.
func (c *SimClient) SetFlight(rec *flight.Recorder) { c.fr = rec }

// Servers returns the MCD bank.
func (c *SimClient) Servers() []*SimServer { return c.servers }

func (c *SimClient) pick(key string) (int, *SimServer) {
	i := c.selector.Pick(key, len(c.servers))
	return i, c.servers[i]
}

// fail classifies a request error or Down reply into the right counter and
// feeds the health state machine.
func (c *SimClient) fail(a *sim.Task, idx int, err error, down bool) string {
	result := "deadline"
	switch {
	case down:
		c.downReplies++
		result = "down"
	case errors.Is(err, fabric.ErrUnreachable):
		c.unreachables++
		result = "unreachable"
	default:
		c.deadlineMisses++
		c.fr.Append(a.Now(), flight.KindDeadline, c.node.Name(), c.servers[idx].node.Name(), 0)
	}
	c.observe(a, idx, false)
	return result
}

// mcdReply carries one MCD's scatter-gather outcome back to GetMulti.
type mcdReply struct {
	resp *GetResp
	err  error
}

// routeRead picks the server a batched read for key should go to: the
// primary, unless it is currently unroutable (ejected or suspected, probe
// not yet due) and the replica is routable — then the key fails over at
// scatter time. Unlike admitRead this never counts probes or fast-fails;
// the per-server admission in the scatter loop does that once per batch.
func (c *SimClient) routeRead(a *sim.Task, key string) int {
	i, _ := c.pick(key)
	r := c.replicaNext(key, i)
	if r >= 0 && !c.readRoutable(a, i) && c.readRoutable(a, r) {
		c.failovers++
		c.fr.Append(a.Now(), flight.KindFailover, c.node.Name(), c.servers[r].node.Name(), 0)
		return r
	}
	return i
}

// DownReplies returns how many of this client's requests were answered by
// a dead daemon's connection reset.
func (c *SimClient) DownReplies() uint64 { return c.downReplies }

// DeadlineMisses returns how many of this client's requests were abandoned
// at an operation deadline and fell back to the server path.
func (c *SimClient) DeadlineMisses() uint64 { return c.deadlineMisses }

// BankStats sums Stats across the MCD bank.
func (c *SimClient) BankStats() Stats {
	var total Stats
	for _, s := range c.servers {
		st := s.store.Stats()
		total.CmdGet += st.CmdGet
		total.CmdSet += st.CmdSet
		total.GetHits += st.GetHits
		total.GetMisses += st.GetMisses
		total.Evictions += st.Evictions
		total.Expired += st.Expired
		total.CurrItems += st.CurrItems
		total.TotalItems += st.TotalItems
		total.Bytes += st.Bytes
		total.LimitBytes += st.LimitBytes
	}
	total.DownReplies = c.downReplies
	total.DeadlineMisses = c.deadlineMisses
	total.Unreachables = c.unreachables
	total.Ejects = c.ejects
	total.Probes = c.probes
	total.Readmits = c.readmits
	total.FastFails = c.fastFails
	total.Failovers = c.failovers
	total.Suspects = c.suspects
	total.SuspectClears = c.suspectClears
	return total
}
