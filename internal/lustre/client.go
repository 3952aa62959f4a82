package lustre

import (
	"container/list"
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// clientPageSize is the client cache granularity.
const clientPageSize = 4096

// Local kernel-client costs per operation: Lustre has no FUSE crossing,
// so a cached read pays only VFS work and a memory copy.
const (
	clientOpCPU        = 2 * time.Microsecond
	clientPerByteNanos = 0.4
)

// contentCache is a byte-bounded LRU of page contents, the client-side
// counterpart of the kernel page cache (it stores data, unlike
// pagecache.Cache which tracks presence for servers that also hold the
// authoritative extents).
type contentCache struct {
	capacity int64
	used     int64
	lru      *list.List // of cacheKey
	pages    map[cacheKey]*cacheEntry
}

type cacheKey struct {
	path string
	idx  int64
}

type cacheEntry struct {
	el   *list.Element
	data blob.Blob // exactly one page, possibly short at EOF
}

func newContentCache(capacity int64) *contentCache {
	return &contentCache{capacity: capacity, lru: list.New(), pages: make(map[cacheKey]*cacheEntry)}
}

func (c *contentCache) get(path string, idx int64) (blob.Blob, bool) {
	e, ok := c.pages[cacheKey{path, idx}]
	if !ok {
		return blob.Blob{}, false
	}
	c.lru.MoveToFront(e.el)
	return e.data, true
}

func (c *contentCache) put(path string, idx int64, data blob.Blob) {
	k := cacheKey{path, idx}
	if e, ok := c.pages[k]; ok {
		c.used += data.Len() - e.data.Len()
		e.data = data
		c.lru.MoveToFront(e.el)
	} else {
		e := &cacheEntry{data: data}
		e.el = c.lru.PushFront(k)
		c.pages[k] = e
		c.used += data.Len()
	}
	for c.used > c.capacity && c.lru.Len() > 0 {
		back := c.lru.Back()
		bk := back.Value.(cacheKey)
		c.used -= c.pages[bk].data.Len()
		delete(c.pages, bk)
		c.lru.Remove(back)
	}
}

func (c *contentCache) dropFile(path string) {
	for k, e := range c.pages {
		if k.path == path {
			c.used -= e.data.Len()
			c.lru.Remove(e.el)
			delete(c.pages, k)
		}
	}
}

func (c *contentCache) clear() {
	c.lru.Init()
	c.pages = make(map[cacheKey]*cacheEntry)
	c.used = 0
}

// Client is a Lustre client: a kernel-level file system client (no FUSE
// crossing) with a coherent local page cache.
type Client struct {
	cluster *Cluster
	node    *fabric.Node
	id      int
	cache   *contentCache

	fdPaths map[gluster.FD]string
	nextFD  gluster.FD

	// statOps pools Stat's request frames; see statOp.
	statOps []*statOp

	// Stats
	CacheHits, CacheMisses uint64
}

var _ gluster.FS = (*Client)(nil)

// Node returns the fabric node the client runs on.
func (cl *Client) Node() *fabric.Node { return cl.node }

// Register exposes the client page cache's hit counters under prefix
// (e.g. "lc0.cache"), the client-side tier the paper compares the MCD
// bank against.
func (cl *Client) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".hits", func() uint64 { return cl.CacheHits })
	reg.Counter(prefix+".misses", func() uint64 { return cl.CacheMisses })
	reg.Rate(prefix+".hit_rate",
		func() uint64 { return cl.CacheHits },
		func() uint64 { return cl.CacheHits + cl.CacheMisses })
}

// NewClient attaches a client on the given node.
func (c *Cluster) NewClient(node *fabric.Node) *Client {
	cl := &Client{
		cluster: c,
		node:    node,
		id:      len(c.clients),
		cache:   newContentCache(c.cfg.ClientCacheBytes),
		fdPaths: make(map[gluster.FD]string),
	}
	node.Handle("lustre-client", cl.handleCallback)
	c.clients = append(c.clients, cl)
	return cl
}

// handleCallback processes MDS lock-revocation callbacks.
func (cl *Client) handleCallback(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	r := req.(*revokeMsg)
	cl.cache.dropFile(r.Path)
	respond(&revokeMsg{Path: ""})
}

// DropCaches simulates unmount/remount: the cold-cache configuration of
// the paper's experiments.
func (cl *Client) DropCaches() {
	cl.cache.clear()
	for _, m := range cl.cluster.files {
		delete(m.holders, cl.id)
	}
}

func (cl *Client) mds(t *sim.Task, req *mdsReq, k func(*mdsResp)) {
	req.Client = cl.id
	// Lustre's RPCs do not participate in optrace deadlines; a nil reply
	// here would mean a deadline leaked onto a Lustre operation.
	cl.node.Call(t, cl.cluster.mdsNode, "mds", req, func(resp fabric.Msg, _ error) { k(resp.(*mdsResp)) })
}

// open issues a create or open at the MDS and assigns the descriptor.
func (cl *Client) open(t *sim.Task, op, path string, k func(gluster.FD, error)) {
	cl.mds(t, &mdsReq{Op: op, Path: path}, func(r *mdsResp) {
		if r.Code != "" {
			k(0, mapCode(r.Code))
			return
		}
		cl.nextFD++
		cl.fdPaths[cl.nextFD] = path
		k(cl.nextFD, nil)
	})
}

// Create implements gluster.FS.
func (cl *Client) Create(t *sim.Task, path string, k func(gluster.FD, error)) {
	cl.open(t, "create", path, k)
}

// Open implements gluster.FS.
func (cl *Client) Open(t *sim.Task, path string, k func(gluster.FD, error)) {
	cl.open(t, "open", path, k)
}

// Close implements gluster.FS. Locks and cached pages persist past close,
// as in Lustre.
func (cl *Client) Close(t *sim.Task, fd gluster.FD, k func(error)) {
	if _, ok := cl.fdPaths[fd]; !ok {
		k(gluster.ErrBadFD)
		return
	}
	delete(cl.fdPaths, fd)
	k(nil)
}

// stripeFor maps a logical file offset to its OST and object-local offset.
func (cl *Client) stripeFor(off int64) (ostIdx int, objOff int64) {
	ss := cl.cluster.cfg.StripeSize
	n := int64(len(cl.cluster.osts))
	stripe := off / ss
	within := off % ss
	return int(stripe % n), (stripe/n)*ss + within
}

// ostIO performs a striped read or write of [off, off+size), splitting at
// stripe boundaries and issuing per-OST requests in parallel.
func (cl *Client) ostIO(t *sim.Task, path string, off int64, data blob.Blob, size int64, write bool, k func(blob.Blob)) {
	ss := cl.cluster.cfg.StripeSize
	type piece struct {
		ost        int
		objOff     int64
		logicalOff int64
		size       int64
	}
	var pieces []piece
	remaining := size
	if write {
		remaining = data.Len()
	}
	pos := off
	for remaining > 0 {
		take := ss - pos%ss
		if take > remaining {
			take = remaining
		}
		oi, oo := cl.stripeFor(pos)
		pieces = append(pieces, piece{ost: oi, objOff: oo, logicalOff: pos, size: take})
		pos += take
		remaining -= take
	}
	finish := func(results []blob.Blob) {
		if write {
			k(blob.Blob{})
			return
		}
		k(blob.Concat(results...))
	}
	if len(pieces) == 1 {
		pc := pieces[0]
		cl.onePieceIO(t, path, pc.ost, pc.objOff, pc.logicalOff-off, pc.size, data, write, func(b blob.Blob) {
			finish([]blob.Blob{b})
		})
		return
	}
	// One task per stripe piece, joined in piece order.
	results := make([]blob.Blob, len(pieces))
	events := make([]*sim.Event, len(pieces))
	for i, pc := range pieces {
		i, pc := i, pc
		ev := sim.NewEvent(t.Env())
		t.Env().StartTask("lustre-stripe", func(q *sim.Task) {
			cl.onePieceIO(q, path, pc.ost, pc.objOff, pc.logicalOff-off, pc.size, data, write, func(b blob.Blob) {
				results[i] = b
				ev.Trigger(nil)
				q.End()
			})
		})
		events[i] = ev
	}
	var join func(i int)
	join = func(i int) {
		if i == len(events) {
			finish(results)
			return
		}
		events[i].Wait(t, func(interface{}) { join(i + 1) })
	}
	join(0)
}

func (cl *Client) onePieceIO(t *sim.Task, path string, ostIdx int, objOff, dataOff, size int64, data blob.Blob, write bool, k func(blob.Blob)) {
	o := cl.cluster.osts[ostIdx]
	req := &ostReq{Write: write, Path: path, Off: objOff, Size: size}
	if write {
		req.Data = data.Slice(dataOff, dataOff+size)
	}
	cl.node.Call(t, o.node, "ost", req, func(m fabric.Msg, _ error) { k(m.(*ostResp).Data) })
}

// Read implements gluster.FS: page-granular, served from the coherent
// local cache when possible.
func (cl *Client) Read(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	path, ok := cl.fdPaths[fd]
	if !ok {
		k(blob.Blob{}, gluster.ErrBadFD)
		return
	}
	cl.node.CPU.Use(t, clientOpCPU+sim.Duration(float64(size)*clientPerByteNanos), func() {
		cl.mdsStatCached(t, path, func(st *gluster.Stat) {
			if st == nil {
				k(blob.Blob{}, gluster.ErrNotExist)
				return
			}
			if off >= st.Size {
				k(blob.Blob{}, nil)
				return
			}
			if off+size > st.Size {
				size = st.Size - off
			}
			cl.readPages(t, path, st.Size, off, size, k)
		})
	})
}

// readPages serves [off, off+size) of a file of fileSize bytes from the
// page cache, fetching each contiguous run of missing pages from the OSTs
// in one striped request, then assembling the range.
func (cl *Client) readPages(t *sim.Task, path string, fileSize, off, size int64, k func(blob.Blob, error)) {
	// Register as a cache holder (the read lock).
	if m := cl.cluster.files[path]; m != nil {
		m.holders[cl.id] = cl
	}

	firstPage := off / clientPageSize
	lastPage := (off + size - 1) / clientPageSize
	runStart := int64(-1)
	flushRun := func(endPage int64, k2 func()) {
		if runStart < 0 {
			k2()
			return
		}
		lo := runStart * clientPageSize
		hi := (endPage + 1) * clientPageSize
		if hi > fileSize {
			hi = fileSize
		}
		start := runStart
		runStart = -1
		cl.ostIO(t, path, lo, blob.Blob{}, hi-lo, false, func(data blob.Blob) {
			for pg := start; pg <= endPage; pg++ {
				plo := pg*clientPageSize - lo
				phi := plo + clientPageSize
				if phi > data.Len() {
					phi = data.Len()
				}
				if plo >= phi {
					break
				}
				cl.cache.put(path, pg, data.Slice(plo, phi))
			}
			k2()
		})
	}
	assemble := func() {
		var parts []blob.Blob
		for pg := firstPage; pg <= lastPage; pg++ {
			page, hit := cl.cache.get(path, pg)
			if !hit {
				break // EOF page beyond data
			}
			lo := int64(0)
			if pg == firstPage {
				lo = off - pg*clientPageSize
			}
			hi := page.Len()
			if end := off + size - pg*clientPageSize; end < hi {
				hi = end
			}
			if lo >= hi {
				break
			}
			parts = append(parts, page.Slice(lo, hi))
		}
		k(blob.Concat(parts...), nil)
	}
	// Scan the pages, flushing each missing run when a hit ends it.
	var scan func(pg int64)
	scan = func(pg int64) {
		for ; pg <= lastPage; pg++ {
			if _, hit := cl.cache.get(path, pg); hit {
				cl.CacheHits++
				if runStart >= 0 {
					next := pg + 1
					flushRun(pg-1, func() { scan(next) })
					return
				}
			} else {
				cl.CacheMisses++
				if runStart < 0 {
					runStart = pg
				}
			}
		}
		flushRun(lastPage, assemble)
	}
	scan(firstPage)
}

// mdsStatCached returns the file's metadata. Attribute reads hit the MDS
// only when the client holds no pages (a coarse model of Lustre's
// attribute caching under locks).
func (cl *Client) mdsStatCached(t *sim.Task, path string, k func(*gluster.Stat)) {
	m := cl.cluster.files[path]
	if m == nil {
		k(nil)
		return
	}
	if _, holding := m.holders[cl.id]; holding {
		k(cl.cluster.statOf(path, m)) // attributes valid under lock
		return
	}
	cl.mds(t, &mdsReq{Op: "stat", Path: path}, func(r *mdsResp) {
		if r.Code != "" {
			k(nil)
			return
		}
		k(r.St)
	})
}

// Write implements gluster.FS: write-through to the OSTs, with other
// clients' caches revoked first (writes are flushed before locks are
// released, so readers always see completed writes).
func (cl *Client) Write(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	path, ok := cl.fdPaths[fd]
	if !ok {
		k(0, gluster.ErrBadFD)
		return
	}
	cl.node.CPU.Use(t, clientOpCPU+sim.Duration(float64(data.Len())*clientPerByteNanos), func() {
		m := cl.cluster.files[path]
		if m == nil {
			k(0, gluster.ErrNotExist)
			return
		}
		// Acquire the write lock: MDS revokes all other holders.
		lock := &lockReq{Path: path, Client: cl.id, Write: true}
		cl.node.Call(t, cl.cluster.mdsNode, "mds-lock", lock, func(fabric.Msg, error) {
			cl.ostIO(t, path, off, data, 0, true, func(blob.Blob) {
				cl.patchPages(path, off, data)
				m.holders[cl.id] = cl
				// Size/mtime update at the MDS.
				setattr := &mdsReq{Op: "setattr", Path: path, Size: off + data.Len(), Mtime: cl.cluster.env.Now()}
				cl.mds(t, setattr, func(*mdsResp) { k(data.Len(), nil) })
			})
		})
	})
}

// patchPages updates our own cached pages covering a completed write.
func (cl *Client) patchPages(path string, off int64, data blob.Blob) {
	first := off / clientPageSize
	last := (off + data.Len() - 1) / clientPageSize
	for pg := first; pg <= last; pg++ {
		if e, okc := cl.cache.pages[cacheKey{path, pg}]; okc && e != nil {
			lo := pg * clientPageSize
			hi := lo + clientPageSize
			plo, phi := maxI(off, lo), minI(off+data.Len(), hi)
			if plo < phi {
				// Patch the cached page with the written range.
				page := e.data
				var parts []blob.Blob
				if plo > lo {
					parts = append(parts, page.Slice(0, plo-lo))
				}
				parts = append(parts, data.Slice(plo-off, phi-off))
				if phi-lo < page.Len() {
					parts = append(parts, page.Slice(phi-lo, page.Len()))
				}
				e.data = blob.Concat(parts...)
			}
		}
	}
}

// Stat implements gluster.FS.
func (cl *Client) Stat(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	op := cl.takeStatOp()
	op.k = k
	op.req.Op, op.req.Path, op.req.Client = "stat", path, cl.id
	cl.node.Call(t, cl.cluster.mdsNode, "mds", &op.req, op.fnDone)
}

// statOp is Stat's pooled frame: the MDS request and the completion
// continuation prebound as a method value. It returns to the client's pool
// when the fabric recycles the request, after both sides are done with it.
type statOp struct {
	cl     *Client
	k      func(*gluster.Stat, error)
	req    mdsReq
	fnDone func(fabric.Msg, error)
}

func (cl *Client) takeStatOp() *statOp {
	if n := len(cl.statOps); n > 0 {
		op := cl.statOps[n-1]
		cl.statOps[n-1] = nil
		cl.statOps = cl.statOps[:n-1]
		return op
	}
	op := &statOp{cl: cl}
	op.req.op = op
	op.fnDone = op.done
	return op
}

func (op *statOp) release() {
	op.k = nil
	op.req = mdsReq{op: op}
	op.cl.statOps = append(op.cl.statOps, op)
}

func (op *statOp) done(m fabric.Msg, _ error) {
	r := m.(*mdsResp)
	if r.Code != "" {
		op.k(nil, mapCode(r.Code))
		return
	}
	op.k(r.St, nil)
}

// Unlink implements gluster.FS.
func (cl *Client) Unlink(t *sim.Task, path string, k func(error)) {
	cl.mds(t, &mdsReq{Op: "unlink", Path: path}, func(r *mdsResp) {
		cl.cache.dropFile(path)
		k(mapCode(r.Code))
	})
}

// Mkdir implements gluster.FS.
func (cl *Client) Mkdir(t *sim.Task, path string, k func(error)) {
	cl.mds(t, &mdsReq{Op: "mkdir", Path: path}, func(r *mdsResp) { k(mapCode(r.Code)) })
}

// Readdir implements gluster.FS.
func (cl *Client) Readdir(t *sim.Task, path string, k func([]string, error)) {
	cl.mds(t, &mdsReq{Op: "readdir", Path: path}, func(r *mdsResp) { k(r.Names, mapCode(r.Code)) })
}

// Truncate implements gluster.FS (metadata-only in this model).
func (cl *Client) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	m := cl.cluster.files[path]
	if m == nil {
		k(gluster.ErrNotExist)
		return
	}
	cl.cache.dropFile(path)
	setattr := &mdsReq{Op: "setattr", Path: path, Size: size, Exact: true, Mtime: cl.cluster.env.Now()}
	cl.mds(t, setattr, func(r *mdsResp) { k(mapCode(r.Code)) })
}

func mapCode(code string) error {
	switch code {
	case "":
		return nil
	case "ENOENT":
		return gluster.ErrNotExist
	case "EEXIST":
		return gluster.ErrExist
	default:
		return gluster.ErrBadFD
	}
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
