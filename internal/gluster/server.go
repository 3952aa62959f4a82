package gluster

import (
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// ServerConfig models the glusterfsd daemon's processing costs.
type ServerConfig struct {
	// IOThreads bounds how many requests the daemon services
	// concurrently (the io-threads translator; requests beyond it queue).
	IOThreads int
	// OpCPU is the daemon + VFS processing cost per operation.
	OpCPU sim.Duration
	// PerByteCPUNanos is the copy cost (ns/byte) for data moved through
	// the daemon (FUSE-less on the server, but the brick still copies
	// between the network stack and the file system).
	PerByteCPUNanos float64
}

// DefaultServerConfig matches a 2008-era glusterfsd (GlusterFS 1.3) on an
// 8-core node: a userspace daemon whose per-operation path — event loop,
// protocol decode, translator stack, VFS calls into the brick file system,
// and completion callbacks — costs far more than a kernel server would.
var DefaultServerConfig = ServerConfig{
	IOThreads:       6,
	OpCPU:           160 * time.Microsecond,
	PerByteCPUNanos: 0.4,
}

// Server is the protocol-server xlator: it exposes a child FS (typically
// SMCache wrapping Posix) as the "glusterfsd" fabric service.
type Server struct {
	node    *fabric.Node
	child   FS
	cfg     ServerConfig
	threads *sim.Resource
	down    bool

	// statOps is the stat frame free list; see serverStatOp.
	statOps []*serverStatOp

	// Ops counts completed requests by type for experiment reporting.
	Ops map[string]uint64
}

// NewServer attaches a GlusterFS daemon to node serving child.
func NewServer(node *fabric.Node, child FS, cfg ServerConfig) *Server {
	if cfg.IOThreads <= 0 {
		cfg.IOThreads = DefaultServerConfig.IOThreads
	}
	if cfg.OpCPU == 0 {
		cfg.OpCPU = DefaultServerConfig.OpCPU
	}
	if cfg.PerByteCPUNanos == 0 {
		cfg.PerByteCPUNanos = DefaultServerConfig.PerByteCPUNanos
	}
	s := &Server{
		node:    node,
		child:   child,
		cfg:     cfg,
		threads: sim.NewResource(node.Network().Env(), cfg.IOThreads),
		Ops:     make(map[string]uint64),
	}
	node.Handle(ServiceName, s.handle)
	return s
}

// Node returns the fabric node the daemon runs on.
func (s *Server) Node() *fabric.Node { return s.node }

// Child returns the served xlator stack.
func (s *Server) Child() FS { return s.child }

// Fail takes the brick daemon down: every request is refused with
// ErrServerDown before reaching the translator stack, so neither the disk
// nor the cache bank sees it. Unlike an MCD crash nothing is lost — the
// brick's storage is intact when Recover brings the daemon back.
func (s *Server) Fail() { s.down = true }

// Recover restarts the brick daemon over its intact storage.
func (s *Server) Recover() { s.down = false }

// Down reports whether the daemon is failed.
func (s *Server) Down() bool { return s.down }

// downResp builds the refused-request response for req's type.
func downResp(req fabric.Msg) fabric.Msg {
	code := errCode(ErrServerDown)
	switch req.(type) {
	case *openReq:
		return &openResp{Code: code}
	case *closeReq, *pathReq:
		return &simpleResp{Code: code}
	case *readReq:
		return &readResp{Code: code}
	case *writeReq:
		return &writeResp{Code: code}
	case *statReq:
		return &statResp{Code: code}
	case *readdirReq:
		return &readdirResp{Code: code}
	default:
		panic("gluster: unknown request type")
	}
}

// reqName names a protocol request for stats and spans.
func reqName(req fabric.Msg) string {
	switch r := req.(type) {
	case *openReq:
		if r.Create {
			return "create"
		}
		return "open"
	case *closeReq:
		return "close"
	case *readReq:
		return "read"
	case *writeReq:
		return "write"
	case *statReq:
		return "stat"
	case *pathReq:
		return r.Op
	case *readdirReq:
		return "readdir"
	}
	return "?"
}

func (s *Server) charge(t *sim.Task, payload int64, k func()) {
	cpu := s.cfg.OpCPU + sim.Duration(float64(payload)*s.cfg.PerByteCPUNanos)
	s.node.CPU.Use(t, cpu, k)
}

// serverStatOp is the daemon's pooled frame for a task-served stat — the
// dominant request on the fig5 path. It carries the response message and
// the grant→charge→serve→respond chain as prebound method values, so the
// daemon's side of a stat allocates nothing. The op returns to its server's
// pool when the fabric recycles the delivered response, after the calling
// client's continuation has read it.
type serverStatOp struct {
	s       *Server
	t       *sim.Task
	r       *statReq
	respond func(fabric.Msg)
	sp      *optrace.Span
	resp    statResp

	fnGranted func()
	fnCharged func()
	fnStat    func(*Stat, error)
}

func newServerStatOp(s *Server) *serverStatOp {
	op := &serverStatOp{s: s}
	op.resp.op = op
	op.fnGranted = op.granted
	op.fnCharged = op.charged
	op.fnStat = op.stat
	return op
}

func (s *Server) takeStatOp() *serverStatOp {
	if n := len(s.statOps); n > 0 {
		op := s.statOps[n-1]
		s.statOps[n-1] = nil
		s.statOps = s.statOps[:n-1]
		return op
	}
	return newServerStatOp(s)
}

func (op *serverStatOp) release() {
	op.t, op.r, op.respond, op.sp = nil, nil, nil, nil
	op.resp.St, op.resp.Code = nil, ""
	op.s.statOps = append(op.s.statOps, op)
}

// granted runs once an io-thread is held; order matches handle's generic
// statReq case exactly: count, charge, serve, then release-end-respond.
func (op *serverStatOp) granted() {
	op.s.Ops["stat"]++
	op.s.charge(op.t, 0, op.fnCharged)
}

func (op *serverStatOp) charged() {
	op.s.child.Stat(op.t, op.r.Path, op.fnStat)
}

func (op *serverStatOp) stat(st *Stat, err error) {
	op.s.threads.Release(1)
	op.sp.End(op.t)
	op.resp.St, op.resp.Code = st, errCode(err)
	op.respond(&op.resp)
}

// handle serves one RPC: it takes an io-thread, charges the daemon's CPU
// (after the child for reads, so the copy is charged on the bytes actually
// read), runs the request down the translator stack, and releases the
// thread and closes the span before the response leaves.
func (s *Server) handle(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	sp := optrace.StartSpan(t, optrace.LayerServer, reqName(req))
	if s.down {
		// Refused at the listener: no io-thread is taken and no daemon
		// time is spent, like a connection reset from a dead glusterfsd.
		sp.SetAttr("down", "true")
		sp.End(t)
		respond(downResp(req))
		return
	}
	if r, ok := req.(*statReq); ok {
		// Pooled fast path for the dominant request; the generic path below
		// would serve it identically, one closure chain per call.
		op := s.takeStatOp()
		op.t, op.r, op.respond, op.sp = t, r, respond, sp
		s.threads.Acquire(t, 1, op.fnGranted)
		return
	}
	s.threads.Acquire(t, 1, func() {
		done := func(m fabric.Msg) {
			s.threads.Release(1)
			sp.End(t)
			respond(m)
		}
		child := s.child
		switch r := req.(type) {
		case *openReq:
			s.charge(t, 0, func() {
				if r.Create {
					s.Ops["create"]++
					child.Create(t, r.Path, func(fd FD, err error) {
						done(&openResp{FD: fd, Code: errCode(err)})
					})
					return
				}
				s.Ops["open"]++
				child.Open(t, r.Path, func(fd FD, err error) {
					done(&openResp{FD: fd, Code: errCode(err)})
				})
			})
		case *closeReq:
			s.Ops["close"]++
			s.charge(t, 0, func() {
				child.Close(t, r.FD, func(err error) {
					done(&simpleResp{Code: errCode(err)})
				})
			})
		case *readReq:
			s.Ops["read"]++
			child.Read(t, r.FD, r.Off, r.Size, func(data blob.Blob, err error) {
				s.charge(t, data.Len(), func() {
					done(&readResp{Data: data, Code: errCode(err)})
				})
			})
		case *writeReq:
			s.Ops["write"]++
			s.charge(t, r.Data.Len(), func() {
				child.Write(t, r.FD, r.Off, r.Data, func(n int64, err error) {
					done(&writeResp{N: n, Code: errCode(err)})
				})
			})
		case *statReq:
			s.Ops["stat"]++
			s.charge(t, 0, func() {
				child.Stat(t, r.Path, func(st *Stat, err error) {
					done(&statResp{St: st, Code: errCode(err)})
				})
			})
		case *pathReq:
			s.Ops[r.Op]++
			s.charge(t, 0, func() {
				k := func(err error) { done(&simpleResp{Code: errCode(err)}) }
				switch r.Op {
				case "unlink":
					child.Unlink(t, r.Path, k)
				case "mkdir":
					child.Mkdir(t, r.Path, k)
				case "truncate":
					child.Truncate(t, r.Path, r.Size, k)
				default:
					panic("gluster: unknown pathReq op " + r.Op)
				}
			})
		case *readdirReq:
			s.Ops["readdir"]++
			s.charge(t, 0, func() {
				child.Readdir(t, r.Path, func(names []string, err error) {
					done(&readdirResp{Names: names, Code: errCode(err)})
				})
			})
		default:
			panic("gluster: unknown request type")
		}
	})
}

// Client is the protocol-client xlator: the client half of the GlusterFS
// transport, forwarding every operation to one server over the fabric.
type Client struct {
	node   *fabric.Node
	server *fabric.Node

	// statOps is the Stat frame free list; see clientStatOp.
	statOps []*clientStatOp

	// RPC counters, registered by Register.
	rpcs      uint64
	rpcErrors uint64
}

var _ FS = (*Client)(nil)

// NewClient returns a protocol client on node talking to the daemon on
// server.
func NewClient(node, server *fabric.Node) *Client {
	return &Client{node: node, server: server}
}

// Register exposes the protocol client's RPC counters under prefix
// (e.g. "client0.protocol"): how many brick RPCs this mount issued and
// how many were abandoned at an operation deadline.
func (c *Client) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".rpcs", func() uint64 { return c.rpcs })
	reg.Counter(prefix+".rpc_errors", func() uint64 { return c.rpcErrors })
}

// call performs one protocol RPC under a protocol-layer span. The server
// path is authoritative, so callers above it clear any cache-budget
// deadline first; if one is still armed and expires, the error propagates
// up like any other FS error.
func (c *Client) call(t *sim.Task, name string, req fabric.Msg, k func(fabric.Msg, error)) {
	sp := optrace.StartSpan(t, optrace.LayerProtocol, name)
	c.rpcs++
	c.node.Call(t, c.server, ServiceName, req, func(m fabric.Msg, err error) {
		if err != nil {
			c.rpcErrors++
			sp.SetAttr("deadline", "expired")
		}
		sp.End(t)
		k(m, err)
	})
}

// Create implements FS.
func (c *Client) Create(t *sim.Task, path string, k func(FD, error)) {
	c.call(t, "create", &openReq{Path: path, Create: true}, func(m fabric.Msg, err error) {
		if err != nil {
			k(0, err)
			return
		}
		r := m.(*openResp)
		k(r.FD, codeErr(r.Code))
	})
}

// Open implements FS.
func (c *Client) Open(t *sim.Task, path string, k func(FD, error)) {
	c.call(t, "open", &openReq{Path: path}, func(m fabric.Msg, err error) {
		if err != nil {
			k(0, err)
			return
		}
		r := m.(*openResp)
		k(r.FD, codeErr(r.Code))
	})
}

// Close implements FS.
func (c *Client) Close(t *sim.Task, fd FD, k func(error)) {
	c.call(t, "close", &closeReq{FD: fd}, func(m fabric.Msg, err error) {
		if err != nil {
			k(err)
			return
		}
		k(codeErr(m.(*simpleResp).Code))
	})
}

// Read implements FS.
func (c *Client) Read(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	c.call(t, "read", &readReq{FD: fd, Off: off, Size: size}, func(m fabric.Msg, err error) {
		if err != nil {
			k(blob.Blob{}, err)
			return
		}
		r := m.(*readResp)
		k(r.Data, codeErr(r.Code))
	})
}

// Write implements FS.
func (c *Client) Write(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	c.call(t, "write", &writeReq{FD: fd, Off: off, Data: data}, func(m fabric.Msg, err error) {
		if err != nil {
			k(0, err)
			return
		}
		r := m.(*writeResp)
		k(r.N, codeErr(r.Code))
	})
}

// Stat implements FS.
func (c *Client) Stat(t *sim.Task, path string, k func(*Stat, error)) {
	op := c.takeStatOp()
	op.t, op.k = t, k
	op.sp = optrace.StartSpan(t, optrace.LayerProtocol, "stat")
	op.req.Path = path
	c.rpcs++
	c.node.Call(t, c.server, ServiceName, &op.req, op.fnDone)
}

// clientStatOp is Client.Stat's pooled per-operation frame: the request,
// the protocol span, and the completion continuation prebound as a method
// value, replacing the closures and request allocation of the generic call
// path. The op returns to its client's pool when the fabric recycles the
// request — after both the continuation and the brick daemon are done with
// it, which is what makes reuse safe even for deadline-abandoned calls
// whose request is still being served.
type clientStatOp struct {
	c      *Client
	t      *sim.Task
	k      func(*Stat, error)
	sp     *optrace.Span
	req    statReq
	fnDone func(fabric.Msg, error)
}

func newClientStatOp(c *Client) *clientStatOp {
	op := &clientStatOp{c: c}
	op.req.op = op
	op.fnDone = op.done
	return op
}

func (c *Client) takeStatOp() *clientStatOp {
	if n := len(c.statOps); n > 0 {
		op := c.statOps[n-1]
		c.statOps[n-1] = nil
		c.statOps = c.statOps[:n-1]
		return op
	}
	return newClientStatOp(c)
}

func (op *clientStatOp) release() {
	op.t, op.k, op.sp = nil, nil, nil
	op.req.Path = ""
	op.c.statOps = append(op.c.statOps, op)
}

// done mirrors call's span handling plus Stat's decode, step for step.
func (op *clientStatOp) done(m fabric.Msg, err error) {
	t, sp, k := op.t, op.sp, op.k
	if err != nil {
		op.c.rpcErrors++
		sp.SetAttr("deadline", "expired")
		sp.End(t)
		k(nil, err)
		return
	}
	sp.End(t)
	r := m.(*statResp)
	k(r.St, codeErr(r.Code))
}

// Unlink implements FS.
func (c *Client) Unlink(t *sim.Task, path string, k func(error)) {
	c.call(t, "unlink", &pathReq{Op: "unlink", Path: path}, func(m fabric.Msg, err error) {
		if err != nil {
			k(err)
			return
		}
		k(codeErr(m.(*simpleResp).Code))
	})
}

// Mkdir implements FS.
func (c *Client) Mkdir(t *sim.Task, path string, k func(error)) {
	c.call(t, "mkdir", &pathReq{Op: "mkdir", Path: path}, func(m fabric.Msg, err error) {
		if err != nil {
			k(err)
			return
		}
		k(codeErr(m.(*simpleResp).Code))
	})
}

// Readdir implements FS.
func (c *Client) Readdir(t *sim.Task, path string, k func([]string, error)) {
	c.call(t, "readdir", &readdirReq{Path: path}, func(m fabric.Msg, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		r := m.(*readdirResp)
		k(r.Names, codeErr(r.Code))
	})
}

// Truncate implements FS.
func (c *Client) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	c.call(t, "truncate", &pathReq{Op: "truncate", Path: path, Size: size}, func(m fabric.Msg, err error) {
		if err != nil {
			k(err)
			return
		}
		k(codeErr(m.(*simpleResp).Code))
	})
}
