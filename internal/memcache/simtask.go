package memcache

import (
	"errors"
	"strconv"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/flight"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// SimClient operations. Each runs on the caller's task and delivers its
// result to a continuation.

// getOp is Get's pooled per-operation frame: the request (whose Keys
// slice permanently aliases the op's one-element key buffer), the
// completion continuation prebound as a method value, and the span/latency
// bookkeeping the closure used to capture. The op returns to its client's
// pool when the fabric recycles the request — after both the continuation
// and the far daemon are done with it, which is what makes reuse safe even
// for deadline-abandoned calls whose request is still being served.
type getOp struct {
	c   *SimClient
	t   *sim.Task
	k   func(*Item, bool)
	sp  *optrace.Span
	idx int
	// next is the replica index to fail over to on a failed leg, -1 for
	// none; the failover leg itself always carries -1.
	next   int
	t0     sim.Time
	req    GetReq
	key    [1]string
	fnDone func(fabric.Msg, error)
}

func newGetOp(c *SimClient) *getOp {
	op := &getOp{c: c}
	op.req.Keys = op.key[:1]
	op.req.op = op
	op.fnDone = op.done
	return op
}

func (c *SimClient) takeGetOp() *getOp {
	if n := len(c.getOps); n > 0 {
		op := c.getOps[n-1]
		c.getOps[n-1] = nil
		c.getOps = c.getOps[:n-1]
		return op
	}
	return newGetOp(c)
}

func (op *getOp) release() {
	op.t, op.k, op.sp = nil, nil, nil
	op.key[0] = ""
	op.c.getOps = append(op.c.getOps, op)
}

func (op *getOp) done(m fabric.Msg, err error) {
	c, t, sp := op.c, op.t, op.sp
	if err != nil {
		sp.SetAttr("result", c.fail(t, op.idx, err, false))
		sp.End(t)
		c.getHist.ObserveSince(t, op.t0)
		if op.next >= 0 {
			c.failoverGet(t, op.next, op.key[0], op.k)
			return
		}
		op.k(nil, false)
		return
	}
	resp := m.(*GetResp)
	if resp.Down {
		sp.SetAttr("result", c.fail(t, op.idx, nil, true))
		sp.End(t)
		c.getHist.ObserveSince(t, op.t0)
		if op.next >= 0 {
			c.failoverGet(t, op.next, op.key[0], op.k)
			return
		}
		op.k(nil, false)
		return
	}
	c.observe(t, op.idx, true)
	c.observeLatency(t, op.idx, t.Now().Sub(op.t0))
	if len(resp.Items) == 0 {
		sp.SetAttr("result", "miss")
		sp.End(t)
		c.getHist.ObserveSince(t, op.t0)
		op.k(nil, false)
		return
	}
	if sp != nil {
		sp.SetAttr("result", "hit")
		sp.SetAttr("bytes", strconv.FormatInt(resp.Items[0].Value.Len(), 10))
		sp.End(t)
	}
	c.getHist.ObserveSince(t, op.t0)
	// The item points into the pooled response: valid through k, reclaimed
	// when the fabric recycles the response after k returns.
	op.k(resp.Items[0], true)
}

// Get fetches one key: k receives (item, true) on a hit and (nil, false)
// on a miss. A dead daemon, a cut link, or an expired operation deadline
// also reads as a miss — the bank degrades, it never stalls or fails an
// operation. An ejected server misses instantly without a wire request
// (see SetEjection). With replication on, a failed primary leg — an
// inadmissible (ejected or suspected) server, a wire error, or a Down
// reply, never a clean miss, which is authoritative on either copy —
// retries once against the replica. A hit's item aliases pooled response
// storage and is valid only until k returns; continuation code copies
// what it keeps, exactly as it would from a network buffer.
//
//imcalint:hotpath 10k-tenant open-loop experiment: per-op allocations on this chain are the marginal cost (ROADMAP item 2); known ones are baselined for burn-down
func (c *SimClient) Get(t *sim.Task, key string, k func(*Item, bool)) {
	idx, srv := c.pick(key)
	next := c.replicaNext(key, idx)
	sp := optrace.StartSpan(t, optrace.LayerMCD, "get")
	sp.SetAttr("server", srv.node.Name())
	t0 := t.Now()
	if !c.admitRead(t, idx) {
		sp.SetAttr("result", "ejected")
		sp.End(t)
		c.getHist.ObserveSince(t, t0)
		if next >= 0 {
			// Dispatched through the stored function value: the failover
			// leg is exceptional by construction and stays off the
			// statically-audited hot chain.
			c.fnGetFailover(t, next, key, k)
			return
		}
		k(nil, false)
		return
	}
	op := c.takeGetOp()
	op.t, op.k, op.sp, op.idx, op.next, op.t0 = t, k, sp, idx, next, t0
	op.key[0] = key
	c.bindings[idx].Call(t, &op.req, op.fnDone)
}

// failoverGet records the replica retry and runs Get's second leg,
// which itself has no further failover target. Reached only through the
// fnGetFailover function value (from Get's admission gate) or from
// getOp.done (off the static hot chain by the same stored-value idiom).
func (c *SimClient) failoverGet(t *sim.Task, next int, key string, k func(*Item, bool)) {
	c.failovers++
	c.fr.Append(t.Now(), flight.KindFailover, c.node.Name(), c.servers[next].node.Name(), 0)
	srv := c.servers[next]
	sp := optrace.StartSpan(t, optrace.LayerMCD, "get")
	sp.SetAttr("server", srv.node.Name())
	t0 := t.Now()
	if !c.admitRead(t, next) {
		sp.SetAttr("result", "ejected")
		sp.End(t)
		c.getHist.ObserveSince(t, t0)
		k(nil, false)
		return
	}
	op := c.takeGetOp()
	op.t, op.k, op.sp, op.idx, op.next, op.t0 = t, k, sp, next, -1, t0
	op.key[0] = key
	c.bindings[next].Call(t, &op.req, op.fnDone)
}

// GetMulti fetches many keys with one batched request per MCD; requests
// to distinct MCDs proceed in parallel, one worker task per MCD. k
// receives the found keys. Keys served by a dead daemon, over a cut link,
// or abandoned because the operation's deadline expired, are simply
// absent — misses the caller satisfies from the server. Keys on an
// ejected server are absent without a worker being started or a request
// serializing onto the NIC.
func (c *SimClient) GetMulti(t *sim.Task, keys []string, k func(map[string]*Item)) {
	if len(keys) == 1 {
		c.Get(t, keys[0], func(it *Item, ok bool) {
			if !ok {
				k(map[string]*Item{})
				return
			}
			k(map[string]*Item{keys[0]: it})
		})
		return
	}
	t0 := t.Now()
	byServer := make(map[int][]string)
	for _, key := range keys {
		i := c.routeRead(t, key)
		byServer[i] = append(byServer[i], key)
	}
	out := make(map[string]*Item, len(keys))
	var events []*sim.Event
	var idxs []int
	for i := range c.servers { // deterministic order
		ks, ok := byServer[i]
		if !ok {
			continue
		}
		if !c.admitRead(t, i) {
			continue // ejected: every key an instant miss
		}
		i, s := i, c.servers[i]
		ev := sim.NewEvent(t.Env())
		worker := t.Env().StartTask("mcd-get", func(q *sim.Task) {
			sp := optrace.StartSpan(q, optrace.LayerMCD, "getmulti")
			sp.SetAttr("server", s.node.Name())
			sp.SetAttr("keys", strconv.Itoa(len(ks)))
			c.node.Call(q, s.node, ServiceName, &GetReq{Keys: ks}, func(m fabric.Msg, err error) {
				if err != nil {
					if errors.Is(err, fabric.ErrUnreachable) {
						sp.SetAttr("result", "unreachable")
					} else {
						sp.SetAttr("result", "deadline")
					}
					sp.End(q)
					ev.Trigger(mcdReply{err: err})
					q.End()
					return
				}
				resp := m.(*GetResp)
				switch {
				case resp.Down:
					sp.SetAttr("result", "down")
				case len(resp.Items) == len(ks):
					sp.SetAttr("result", "hit")
				default:
					sp.SetAttr("result", "partial")
				}
				sp.End(q)
				// The reply outlives this continuation (the caller reads it
				// after the fabric recycles the response), so it carries a
				// private copy of the items.
				items := make([]Item, len(resp.Items))
				own := &GetResp{Items: make([]*Item, len(resp.Items)), Down: resp.Down}
				for j, it := range resp.Items {
					items[j] = *it
					own.Items[j] = &items[j]
				}
				ev.Trigger(mcdReply{resp: own})
				q.End()
			})
		})
		// The workers run on the operation's critical path: their spans
		// nest under the caller's current span.
		optrace.Fork(t, worker)
		events = append(events, ev)
		idxs = append(idxs, i)
	}
	// Collect replies in spawn order, as GetMulti's Wait loop does. The
	// recursion depth is bounded by the bank size.
	var collect func(n int)
	collect = func(n int) {
		if n == len(events) {
			c.multiHist.ObserveSince(t, t0)
			k(out)
			return
		}
		events[n].Wait(t, func(v interface{}) {
			r := v.(mcdReply)
			switch {
			case r.err != nil:
				c.fail(t, idxs[n], r.err, false)
			case r.resp.Down:
				c.fail(t, idxs[n], nil, true)
			default:
				c.observe(t, idxs[n], true)
				for _, it := range r.resp.Items {
					out[it.Key] = it
				}
			}
			collect(n + 1)
		})
	}
	collect(0)
}

// delOp is Delete's pooled per-operation frame; see getOp.
type delOp struct {
	c      *SimClient
	t      *sim.Task
	k      func(bool)
	sp     *optrace.Span
	idx    int
	req    DelReq
	fnDone func(fabric.Msg, error)
}

func newDelOp(c *SimClient) *delOp {
	op := &delOp{c: c}
	op.req.op = op
	op.fnDone = op.done
	return op
}

func (c *SimClient) takeDelOp() *delOp {
	if n := len(c.delOps); n > 0 {
		op := c.delOps[n-1]
		c.delOps[n-1] = nil
		c.delOps = c.delOps[:n-1]
		return op
	}
	return newDelOp(c)
}

func (op *delOp) release() {
	op.t, op.k, op.sp = nil, nil, nil
	op.req.Key = ""
	op.c.delOps = append(op.c.delOps, op)
}

func (op *delOp) done(m fabric.Msg, err error) {
	c, t, sp := op.c, op.t, op.sp
	if err != nil {
		sp.SetAttr("result", c.fail(t, op.idx, err, false))
		sp.End(t)
		op.k(false)
		return
	}
	resp := m.(*DelResp)
	if resp.Down {
		sp.SetAttr("result", c.fail(t, op.idx, nil, true))
		sp.End(t)
		op.k(false)
		return
	}
	c.observe(t, op.idx, true)
	sp.End(t)
	op.k(resp.Found)
}

// Delete is Delete for the task engine; k receives Delete's found
// result. Ejection and failure semantics mirror Delete exactly: an
// ejected or unreachable MCD absorbs the delete without a wire request,
// per the documented fault-model boundary. With replication on, both
// copies are deleted in sequence, as Delete does.
func (c *SimClient) Delete(t *sim.Task, key string, k func(bool)) {
	idx, _ := c.pick(key)
	next := c.replicaNext(key, idx)
	if next < 0 {
		c.delOn(t, idx, key, k)
		return
	}
	c.delOn(t, idx, key, func(found bool) {
		c.delOn(t, next, key, func(found2 bool) { k(found || found2) })
	})
}

// delOn runs one Delete leg against server idx.
func (c *SimClient) delOn(t *sim.Task, idx int, key string, k func(bool)) {
	srv := c.servers[idx]
	sp := optrace.StartSpan(t, optrace.LayerMCD, "delete")
	sp.SetAttr("server", srv.node.Name())
	if !c.admit(t, idx) {
		sp.SetAttr("result", "ejected")
		sp.End(t)
		k(false)
		return
	}
	op := c.takeDelOp()
	op.t, op.k, op.sp, op.idx = t, k, sp, idx
	op.req.Key = key
	c.bindings[idx].Call(t, &op.req, op.fnDone)
}

// setOp is Set's pooled per-operation frame; the request's Item
// permanently points at the op's embedded item, rebuilt per call (the
// store copies on insert, so reuse is safe the moment Set returns).
type setOp struct {
	c      *SimClient
	t      *sim.Task
	k      func(error)
	sp     *optrace.Span
	idx    int
	t0     sim.Time
	item   Item
	req    SetReq
	fnDone func(fabric.Msg, error)
}

func newSetOp(c *SimClient) *setOp {
	op := &setOp{c: c}
	op.req.Item = &op.item
	op.req.op = op
	op.fnDone = op.done
	return op
}

func (c *SimClient) takeSetOp() *setOp {
	if n := len(c.setOps); n > 0 {
		op := c.setOps[n-1]
		c.setOps[n-1] = nil
		c.setOps = c.setOps[:n-1]
		return op
	}
	return newSetOp(c)
}

func (op *setOp) release() {
	op.t, op.k, op.sp = nil, nil, nil
	op.item = Item{}
	op.c.setOps = append(op.c.setOps, op)
}

func (op *setOp) done(m fabric.Msg, err error) {
	c, t, sp := op.c, op.t, op.sp
	if err != nil {
		sp.SetAttr("result", c.fail(t, op.idx, err, false))
		sp.End(t)
		c.setHist.ObserveSince(t, op.t0)
		op.k(err)
		return
	}
	resp := m.(*SetResp)
	switch {
	case resp.Down:
		sp.SetAttr("result", c.fail(t, op.idx, nil, true))
		sp.End(t)
		c.setHist.ObserveSince(t, op.t0)
		op.k(ErrServerDown)
	case resp.Err != "":
		c.observe(t, op.idx, true)
		sp.SetAttr("result", "error")
		sp.End(t)
		c.setHist.ObserveSince(t, op.t0)
		op.k(ErrNotStored)
	default:
		c.observe(t, op.idx, true)
		sp.SetAttr("result", "stored")
		sp.End(t)
		c.setHist.ObserveSince(t, op.t0)
		op.k(nil)
	}
}

// Set is Set for the task engine; k receives Set's error result. With
// replication on, the replica leg runs after the primary leg and the
// primary's result is what k sees, as in Set.
func (c *SimClient) Set(t *sim.Task, key string, value blob.Blob, k func(error)) {
	idx, _ := c.pick(key)
	next := c.replicaNext(key, idx)
	if next < 0 {
		c.setOn(t, idx, key, value, k)
		return
	}
	c.setOn(t, idx, key, value, func(err error) {
		c.setOn(t, next, key, value, func(error) { k(err) })
	})
}

// setOn runs one Set leg against server idx.
func (c *SimClient) setOn(t *sim.Task, idx int, key string, value blob.Blob, k func(error)) {
	srv := c.servers[idx]
	sp := optrace.StartSpan(t, optrace.LayerMCD, "set")
	sp.SetAttr("server", srv.node.Name())
	if sp != nil {
		sp.SetAttr("bytes", strconv.FormatInt(value.Len(), 10))
	}
	t0 := t.Now()
	if !c.admit(t, idx) {
		sp.SetAttr("result", "ejected")
		sp.End(t)
		c.setHist.ObserveSince(t, t0)
		k(ErrServerDown)
		return
	}
	op := c.takeSetOp()
	op.t, op.k, op.sp, op.idx, op.t0 = t, k, sp, idx, t0
	op.item = Item{Key: key, Value: value}
	c.bindings[idx].Call(t, &op.req, op.fnDone)
}
