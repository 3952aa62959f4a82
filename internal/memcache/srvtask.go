package memcache

import (
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// srvOp is the daemon's request state machine, pooled per SimServer. One op
// carries one request from daemon admission through CPU charges to the
// response, on continuations prebound at construction, so a steady-state
// request allocates nothing. The response messages live inside the op and
// carry a backpointer; when the fabric recycles a delivered (or abandoned)
// response, the op returns to its server's free list.
type srvOp struct {
	s       *SimServer
	t       *sim.Task
	req     fabric.Msg
	respond func(fabric.Msg)
	sp      *optrace.Span
	svcTime sim.Duration
	moved   int64

	getResp GetResp
	setResp SetResp
	delResp DelResp
	// items holds hit snapshots by value; ptrs aliases into it for
	// GetResp.Items. Both keep their capacity across reuses.
	items []Item
	ptrs  []*Item

	fnDaemonHeld func()
	fnCPUHeld    func()
	fnCPUDone    func()
	fnCopyHeld   func()
	fnCopyDone   func()
}

func newSrvOp(s *SimServer) *srvOp {
	op := &srvOp{s: s}
	op.getResp.op = op
	op.setResp.op = op
	op.delResp.op = op
	op.fnDaemonHeld = op.daemonHeld
	op.fnCPUHeld = op.cpuHeld
	op.fnCPUDone = op.cpuDone
	op.fnCopyHeld = op.copyHeld
	op.fnCopyDone = op.copyDone
	return op
}

func (s *SimServer) getOp() *srvOp {
	if n := len(s.ops); n > 0 {
		op := s.ops[n-1]
		s.ops[n-1] = nil
		s.ops = s.ops[:n-1]
		return op
	}
	return newSrvOp(s)
}

// release returns the op to its server's pool; called by the pooled
// responses' Recycle when the fabric retires the call.
func (op *srvOp) release() {
	op.t, op.req, op.respond, op.sp = nil, nil, nil, nil
	op.getResp.Items = nil
	op.setResp.Err = ""
	op.getResp.Down, op.setResp.Down, op.delResp.Down = false, false, false
	for i := range op.ptrs {
		op.ptrs[i] = nil
	}
	for i := range op.items {
		op.items[i] = Item{}
	}
	op.s.ops = append(op.s.ops, op)
}

// handle serves one request continuation-style: daemon admission, per-key
// CPU, storage access, then copy CPU for the bytes moved, all on the
// pooled srvOp, so a steady-state request allocates nothing.
func (s *SimServer) handle(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	sp := optrace.StartSpan(t, optrace.LayerMCDSrv, reqName(req))
	if s.down {
		sp.SetAttr("down", "true")
		sp.End(t)
		// Connection refused: the kernel answers with a reset after one
		// wire round trip; no daemon time is spent. Down replies are rare
		// (failure experiments), so they are not pooled.
		switch req.(type) {
		case *GetReq:
			respond(&GetResp{Down: true})
		case *SetReq:
			respond(&SetResp{Down: true})
		case *DelReq:
			respond(&DelResp{Down: true})
		default:
			panic("memcache: unknown request type")
		}
		return
	}
	op := s.getOp()
	op.t, op.req, op.respond, op.sp = t, req, respond, sp
	s.daemon.Acquire(t, 1, op.fnDaemonHeld)
}

func (op *srvOp) daemonHeld() {
	switch r := op.req.(type) {
	case *GetReq:
		op.svcTime = op.s.stretch(sim.Duration(len(r.Keys)) * perKeyServiceTime)
	case *SetReq:
		op.svcTime = op.s.stretch(perKeyServiceTime + copyTime(r.Item.Value.Len()))
	case *DelReq:
		op.svcTime = op.s.stretch(perKeyServiceTime)
	default:
		panic("memcache: unknown request type")
	}
	op.s.node.CPU.Acquire(op.t, 1, op.fnCPUHeld)
}

func (op *srvOp) cpuHeld() { op.t.Sleep(op.svcTime, op.fnCPUDone) }

func (op *srvOp) cpuDone() {
	s := op.s
	s.node.CPU.Release(1)
	if s.down {
		// The daemon crashed while this request was in service: the store
		// was flushed, so applying the mutation (or serving the stale
		// snapshot) would resurrect pre-crash state — the divergence the
		// replica-coherence audit exists to catch. Answer like a
		// connection reset instead; nothing is applied.
		switch op.req.(type) {
		case *GetReq:
			op.getResp.Down = true
			op.finish(&op.getResp)
		case *SetReq:
			op.setResp.Down = true
			op.finish(&op.setResp)
		case *DelReq:
			op.delResp.Down = true
			op.finish(&op.delResp)
		default:
			panic("memcache: unknown request type")
		}
		return
	}
	switch r := op.req.(type) {
	case *GetReq:
		items := op.items[:0]
		var moved int64
		for _, k := range r.Keys {
			if it, ok := s.store.GetView(k); ok {
				items = append(items, it)
				moved += it.Value.Len()
			}
		}
		op.items = items
		ptrs := op.ptrs[:0]
		for i := range items {
			ptrs = append(ptrs, &items[i])
		}
		op.ptrs = ptrs
		op.getResp.Items = ptrs
		op.moved = moved
		if moved > 0 {
			// Copy-out cost for the hit bytes: a second CPU use.
			op.svcTime = s.stretch(copyTime(moved))
			s.node.CPU.Acquire(op.t, 1, op.fnCopyHeld)
			return
		}
		op.finish(&op.getResp)
	case *SetReq:
		if err := s.store.Set(r.Item); err != nil {
			op.setResp.Err = err.Error()
		} else {
			op.setResp.Err = ""
		}
		op.finish(&op.setResp)
	case *DelReq:
		err := s.store.Delete(r.Key)
		op.delResp.Found = err == nil
		op.finish(&op.delResp)
	default:
		panic("memcache: unknown request type")
	}
}

func (op *srvOp) copyHeld() { op.t.Sleep(op.svcTime, op.fnCopyDone) }

func (op *srvOp) copyDone() {
	op.s.node.CPU.Release(1)
	op.finish(&op.getResp)
}

// finish releases the daemon, closes the span, and sends the response.
func (op *srvOp) finish(resp fabric.Msg) {
	t, respond := op.t, op.respond
	op.s.daemon.Release(1)
	op.sp.End(t)
	respond(resp)
}
