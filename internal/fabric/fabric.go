// Package fabric models a cluster interconnect on top of the sim kernel.
//
// A Network connects Nodes through a non-blocking switch. Each node has a
// full-duplex NIC: transmissions serialize at the sender's TX port and the
// receiver's RX port at the transport's bandwidth, then cross the wire after
// the transport's base latency. Each message additionally costs host CPU at
// both ends (protocol processing: copies, interrupts, TCP/IP stack work) —
// that term is what distinguishes RDMA from IPoIB and GigE at equal wire
// speed, and it is what saturates a single server as client counts grow.
//
// Services register per-node request handlers; Call performs an RPC in
// virtual time, serving the request on the destination node and handing
// the response to the caller's continuation.
package fabric

import (
	"fmt"
	"time"

	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// ErrDeadline is returned by Call when the calling task's operation
// context (see optrace) has a virtual-time deadline that the call would
// pass. Cache layers treat it as a miss; the wire and the far daemon may
// still carry the abandoned request and response.
var ErrDeadline = optrace.ErrDeadline

// Transport describes a network technology's first-order performance model.
type Transport struct {
	Name string
	// Latency is the one-way wire+switch latency per message.
	Latency sim.Duration
	// Bandwidth is the link speed in bytes/second.
	Bandwidth float64
	// HostOverhead is CPU time consumed per message at each end for
	// protocol processing (near zero for RDMA, significant for TCP/IP).
	HostOverhead sim.Duration
	// PerByteCPUNanos is the additional per-byte host CPU cost
	// (ns/byte) at each end — TCP copy and segmentation work that RDMA
	// largely eliminates.
	PerByteCPUNanos float64
}

// Transports calibrated to 2008-era hardware (the paper's testbed uses
// InfiniBand DDR HCAs; IPoIB RC is the transport for GlusterFS and IMCa).
// IPoIB's effective bandwidth is far below the DDR signalling rate, as was
// widely measured for TCP over IB at the time.
var (
	// GigE is NFS/TCP over Gigabit Ethernet.
	GigE = Transport{Name: "GigE", Latency: 45 * time.Microsecond, Bandwidth: 117e6, HostOverhead: 18 * time.Microsecond, PerByteCPUNanos: 1.2}
	// IPoIB is TCP over InfiniBand DDR with Reliable Connection.
	IPoIB = Transport{Name: "IPoIB", Latency: 22 * time.Microsecond, Bandwidth: 350e6, HostOverhead: 10 * time.Microsecond, PerByteCPUNanos: 1.0}
	// RDMA is native InfiniBand DDR RDMA (kernel-bypass).
	RDMA = Transport{Name: "RDMA", Latency: 8 * time.Microsecond, Bandwidth: 1200e6, HostOverhead: 2 * time.Microsecond, PerByteCPUNanos: 0.15}
)

// xmitTime returns the serialization delay for n bytes.
func (t Transport) xmitTime(n int64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / t.Bandwidth * 1e9)
}

// headerBytes is the fixed per-message framing cost (transport + RPC
// headers).
const headerBytes = 96

// Msg is any RPC payload that can report its wire size (excluding framing).
type Msg interface {
	WireSize() int64
}

// Handler is a service handler: it runs in scheduler context on the
// destination node, advances through the kernel's task primitives, and
// delivers its response by calling respond exactly once. The serve side of
// an RPC is plain heap events — no process per request.
type Handler func(t *sim.Task, from *Node, req Msg, respond func(Msg))

// Recyclable is implemented by pooled messages. After Call delivers a
// response and the caller's continuation returns, the fabric recycles a
// Recyclable response; a Recyclable request is recycled when the call's
// frame retires (both the caller's continuation and the far side are done
// with it).
type Recyclable interface {
	Recycle()
}

// service is a registered handler plus its interned names — op is the bare
// service name (span label), name the "node/service" process name — both
// resolved once at registration instead of per call.
type service struct {
	h    Handler
	op   string
	name string
}

// Network is a set of nodes joined by one transport through a non-blocking
// switch.
type Network struct {
	env       *sim.Env
	transport Transport
	nodes     map[string]*Node
	// faults is nil until a fault API (CutLink, DegradeLink, ...) is first
	// used; see fault.go. Call's hot path pays one nil check for it.
	faults *netFaults
}

// NewNetwork returns an empty network using the given transport.
func NewNetwork(env *sim.Env, transport Transport) *Network {
	return &Network{env: env, transport: transport, nodes: make(map[string]*Node)}
}

// Env returns the simulation environment.
func (n *Network) Env() *sim.Env { return n.env }

// Transport returns the transport in use.
func (n *Network) Transport() Transport { return n.transport }

// Node is a host on the network.
type Node struct {
	net  *Network
	name string

	// CPU models the host's cores; protocol processing and service work
	// contend for it.
	CPU *sim.Resource

	tx, rx   *sim.Resource
	services map[string]*service

	// frames is the node's free list of outgoing call frames (see
	// frame.go); newFrame grows it. Growth goes through a stored function
	// value deliberately: the per-call path reads it off the free list,
	// and the amortized construction cost stays off the static hot chain
	// the allocfree check walks — the same reasoning that keeps the
	// dispatch loop's ev.fn() indirection tractable.
	frames   []*callFrame
	newFrame func(*Node) *callFrame

	// Traffic accounting.
	TxBytes, RxBytes int64
	TxMsgs, RxMsgs   int64
	// UnreachableCalls counts calls this node gave up on because the link
	// to the destination was cut.
	UnreachableCalls int64

	// rtt, when registered, records the full round-trip of every
	// successful Call from this node — request serialization,
	// service, response — as a latency distribution. Nil (a no-op) until
	// Register runs.
	rtt *telemetry.Hist
}

// NewNode adds a host with the given number of CPU cores.
func (n *Network) NewNode(name string, cores int) *Node {
	if _, dup := n.nodes[name]; dup {
		panic("fabric: duplicate node name " + name)
	}
	node := &Node{
		net:      n,
		name:     name,
		CPU:      sim.NewResource(n.env, cores),
		tx:       sim.NewResource(n.env, 1),
		rx:       sim.NewResource(n.env, 1),
		services: make(map[string]*service),
		newFrame: newCallFrame,
	}
	n.nodes[name] = node
	return node
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Network returns the network the node belongs to.
func (nd *Node) Network() *Network { return nd.net }

func (nd *Node) String() string { return "node " + nd.name }

// Handle registers a service handler on the node.
func (nd *Node) Handle(name string, h Handler) {
	nd.register(name).h = h
}

// register interns the service entry — including its "node/service"
// process name, so the RPC hot path never concatenates a string per call —
// and panics on duplicate registration.
func (nd *Node) register(name string) *service {
	if _, dup := nd.services[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate service %q on %s", name, nd.name))
	}
	svc := &service{op: name, name: nd.name + "/" + name}
	nd.services[name] = svc
	return svc
}

// Binding is a pre-resolved (caller, destination, service) route: the
// service lookup, cross-network check, and handler-name interning happen
// once at Bind time, leaving the per-call path nothing to resolve. Clients
// that talk to a fixed peer set (a memcached bank, a brick) bind once at
// construction and call through the binding thereafter.
type Binding struct {
	nd  *Node
	dst *Node
	svc *service
}

// Bind resolves service on dst once, for calls originating at nd. The
// service must already be registered.
func (nd *Node) Bind(dst *Node, service string) *Binding {
	if nd.net != dst.net {
		panic("fabric: cross-network bind")
	}
	svc, ok := dst.services[service]
	if !ok {
		panic(fmt.Sprintf("fabric: no service %q on %s", service, dst.name))
	}
	return &Binding{nd: nd, dst: dst, svc: svc}
}

// hostCost is the per-message CPU charge at one end.
func (t Transport) hostCost(wire int64) sim.Duration {
	return t.HostOverhead + sim.Duration(float64(wire)*t.PerByteCPUNanos)
}

// Call performs an RPC from nd to dst: the request crosses the network,
// the service's handler runs on dst, the response crosses back, and k
// receives it.
//
// When the calling task carries an operation context with a deadline (see
// optrace), Call honors it: if the deadline has already passed, or passes
// while the request serializes, or passes before the response arrives,
// Call abandons the RPC and delivers ErrDeadline at the deadline instant.
// The far side is unaware — the handler still runs to completion and its
// response still crosses the wire, exactly as a real timed-out RPC leaves
// work behind. Tracing and deadline checks cost no virtual time.
//
// When the network carries fault state (see fault.go), a call on a cut
// link fails with ErrUnreachable — after the connect timeout if the link
// was already down, or at the cut instant if the cut lands mid-flight —
// and degraded links stretch each wire leg. A deadline expiring at or
// before the failure instant wins and turns the result into ErrDeadline.
//
// The call's entire state machine lives in a pooled per-node frame (see
// frame.go): wire legs, deadline bookkeeping, and completion delivery are
// preallocated method values on a recycled struct, so a steady-state Call
// allocates nothing.
func (nd *Node) Call(t *sim.Task, dst *Node, service string, req Msg, k func(Msg, error)) {
	if nd.net != dst.net {
		panic("fabric: cross-network call")
	}
	svc, ok := dst.services[service]
	if !ok {
		panic(fmt.Sprintf("fabric: no service %q on %s", service, dst.name))
	}
	call(nd, dst, svc, t, req, k)
}

// Call performs the bound RPC; see Node.Call. The service resolution and
// destination checks happened at Bind time, so the per-call path starts at
// the frame.
func (b *Binding) Call(t *sim.Task, req Msg, k func(Msg, error)) {
	call(b.nd, b.dst, b.svc, t, req, k)
}

// Bytes is a convenience Msg for raw payloads of a given size.
type Bytes int64

// WireSize implements Msg.
func (b Bytes) WireSize() int64 { return int64(b) }
