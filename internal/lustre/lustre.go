// Package lustre implements a Lustre-like parallel file system baseline:
// one metadata server (MDS), data striped across object storage targets
// (OSTs), and a coherent client-side page cache kept consistent by
// MDS-granted locks that are revoked when another client writes.
//
// It is the comparison system of the reproduced paper (Lustre 1.6 with 1 or
// 4 data servers, warm or cold client cache). Clients implement gluster.FS,
// so every workload driver runs unchanged against GlusterFS, IMCa, and
// Lustre.
package lustre

import (
	"fmt"
	"sort"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// Config sizes a Lustre deployment.
type Config struct {
	// OSTs is the number of data servers (the paper's "DS" count).
	OSTs int
	// StripeSize is the striping unit across OSTs (Lustre default 1 MB).
	StripeSize int64
	// DisksPerOST sizes each OST's RAID-0 array. The default keeps the
	// deployment's total spindle count at 8, comparable to the paper's
	// GlusterFS server hardware.
	DisksPerOST int
	// OSTCacheBytes bounds each OST's server-side page cache.
	OSTCacheBytes int64
	// ClientCacheBytes bounds each client's local page cache.
	ClientCacheBytes int64
	// DiskParams describes each OST's backing disk.
	DiskParams disk.Params
	// MDSOpCPU and OSTOpCPU are per-request service costs. Lustre's
	// kernel-level servers are leaner than a FUSE+userspace daemon.
	MDSOpCPU sim.Duration
	OSTOpCPU sim.Duration
}

// DefaultConfig mirrors the paper's Lustre 1.6.4.3 testbed defaults.
func DefaultConfig(osts int) Config {
	disksPer := 8 / osts
	if disksPer < 1 {
		disksPer = 1
	}
	return Config{
		OSTs:             osts,
		DisksPerOST:      disksPer,
		StripeSize:       1 << 20,
		OSTCacheBytes:    6 << 30,
		ClientCacheBytes: 2 << 30,
		DiskParams:       disk.HighPoint2008,
		MDSOpCPU:         25 * time.Microsecond,
		OSTOpCPU:         20 * time.Microsecond,
	}
}

// meta is the MDS-side record of one file.
type meta struct {
	ino   uint64
	size  int64
	atime sim.Time
	mtime sim.Time
	ctime sim.Time
	// holders are client IDs with cached pages under a read lock.
	holders map[int]*Client
}

// Cluster is a deployed Lustre file system.
type Cluster struct {
	env *sim.Env
	cfg Config

	mdsNode    *fabric.Node
	mdsThreads *sim.Resource
	osts       []*ost

	files   map[string]*meta
	dirs    map[string]map[string]struct{}
	nextIno uint64

	clients []*Client

	// mdsOps pools the MDS's request frames; see mdsOp.
	mdsOps []*mdsOp

	// Stats
	Revocations uint64
	MDSOps      uint64
}

type ost struct {
	node  *fabric.Node
	store *gluster.Posix
}

// New deploys a Lustre cluster on the given network. Node names are
// prefixed to stay unique across co-deployed systems.
func New(env *sim.Env, net *fabric.Network, prefix string, cfg Config) *Cluster {
	if cfg.OSTs <= 0 {
		panic("lustre: need at least one OST")
	}
	c := &Cluster{
		env:        env,
		cfg:        cfg,
		mdsNode:    net.NewNode(prefix+"-mds", 8),
		mdsThreads: sim.NewResource(env, 2),
		files:      make(map[string]*meta),
		dirs:       map[string]map[string]struct{}{"/": {}},
	}
	c.mdsNode.Handle("mds", c.handleMDS)
	c.mdsNode.Handle("mds-lock", c.handleLock)
	for i := 0; i < cfg.OSTs; i++ {
		node := net.NewNode(fmt.Sprintf("%s-ost%d", prefix, i), 8)
		nd := cfg.DisksPerOST
		if nd <= 0 {
			nd = 2
		}
		dev := disk.NewArray(env, nd, 1<<20, cfg.DiskParams)
		store := gluster.NewPosix(env, gluster.PosixConfig{Dev: dev, CacheBytes: cfg.OSTCacheBytes})
		o := &ost{node: node, store: store}
		node.Handle("ost", c.makeOSTHandler(o))
		c.osts = append(c.osts, o)
	}
	return c
}

// --- MDS protocol ---

type mdsReq struct {
	Op     string // create | open | stat | unlink | mkdir | readdir | setattr
	Path   string
	Client int
	Size   int64    // setattr
	Exact  bool     // setattr: set size exactly (truncate) vs extend-only
	Mtime  sim.Time // setattr

	op *statOp // the client stat frame this request lives in, nil if unpooled
}

// Recycle implements fabric.Recyclable.
func (r *mdsReq) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

func (r *mdsReq) WireSize() int64 { return 48 + int64(len(r.Path)) }

type mdsResp struct {
	St    *gluster.Stat
	Names []string
	Code  string

	op *mdsOp // the MDS frame this response lives in, nil if unpooled
}

// Recycle implements fabric.Recyclable: once the caller's continuation has
// read the response, its frame returns to the MDS's pool.
func (r *mdsResp) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

func (r *mdsResp) WireSize() int64 {
	n := int64(16 + len(r.Code))
	if r.St != nil {
		n += r.St.WireSize()
	}
	for _, s := range r.Names {
		n += int64(len(s)) + 8
	}
	return n
}

func (c *Cluster) statOf(path string, m *meta) *gluster.Stat {
	return &gluster.Stat{
		Path: path, Ino: m.ino, Size: m.size,
		Atime: m.atime, Mtime: m.mtime, Ctime: m.ctime,
	}
}

func (c *Cluster) handleMDS(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	op := c.takeMDSOp()
	op.t, op.r, op.respond = t, req.(*mdsReq), respond
	c.MDSOps++
	c.mdsThreads.Acquire(t, 1, op.fnHeld)
}

// mdsOp is the MDS's pooled frame for one metadata request: thread grant,
// CPU charge, serve, respond, on continuations prebound at construction.
// The response lives in the frame, which returns to the pool when the
// fabric recycles the delivered response — so a steady-state stat, the
// fig5 workload's whole diet, allocates only the Stat it returns.
type mdsOp struct {
	c       *Cluster
	t       *sim.Task
	r       *mdsReq
	respond func(fabric.Msg)
	resp    mdsResp

	fnHeld, fnCPUHeld, fnCPUDone, fnServed func()
}

func (c *Cluster) takeMDSOp() *mdsOp {
	if n := len(c.mdsOps); n > 0 {
		op := c.mdsOps[n-1]
		c.mdsOps[n-1] = nil
		c.mdsOps = c.mdsOps[:n-1]
		return op
	}
	op := &mdsOp{c: c}
	op.resp.op = op
	op.fnHeld = op.held
	op.fnCPUHeld = op.cpuHeld
	op.fnCPUDone = op.cpuDone
	op.fnServed = op.served
	return op
}

func (op *mdsOp) release() {
	op.t, op.r, op.respond = nil, nil, nil
	op.resp = mdsResp{op: op}
	op.c.mdsOps = append(op.c.mdsOps, op)
}

func (op *mdsOp) held() { op.c.mdsNode.CPU.Acquire(op.t, 1, op.fnCPUHeld) }

func (op *mdsOp) cpuHeld() { op.t.Sleep(op.c.cfg.MDSOpCPU, op.fnCPUDone) }

func (op *mdsOp) cpuDone() {
	op.c.mdsNode.CPU.Release(1)
	op.c.serveMDS(op.t, op.r, &op.resp, op.fnServed)
}

// served releases the MDS thread before the response leaves.
func (op *mdsOp) served() {
	op.c.mdsThreads.Release(1)
	op.respond(&op.resp)
}

// serveMDS applies one metadata request, filling resp, then runs k. Only
// unlink waits (for the lock revocations it issues).
func (c *Cluster) serveMDS(t *sim.Task, r *mdsReq, resp *mdsResp, k func()) {
	switch r.Op {
	case "create":
		if _, ok := c.files[r.Path]; ok {
			resp.Code = "EEXIST"
			break
		}
		c.nextIno++
		now := c.env.Now()
		m := &meta{ino: c.nextIno, atime: now, mtime: now, ctime: now, holders: make(map[int]*Client)}
		c.files[r.Path] = m
		dir, name := splitPath(r.Path)
		c.ensureDir(dir)[name] = struct{}{}
		resp.St = c.statOf(r.Path, m)
	case "open", "stat":
		m, ok := c.files[r.Path]
		if !ok {
			resp.Code = "ENOENT"
			break
		}
		resp.St = c.statOf(r.Path, m)
	case "setattr":
		m, ok := c.files[r.Path]
		if !ok {
			resp.Code = "ENOENT"
			break
		}
		if r.Exact || r.Size > m.size {
			m.size = r.Size
		}
		m.mtime = r.Mtime
		resp.St = c.statOf(r.Path, m)
	case "unlink":
		m, ok := c.files[r.Path]
		if !ok {
			resp.Code = "ENOENT"
			break
		}
		c.revokeLocked(t, r.Path, m, -1, func() {
			delete(c.files, r.Path)
			dir, name := splitPath(r.Path)
			if d, ok := c.dirs[dir]; ok {
				delete(d, name)
			}
			k()
		})
		return
	case "mkdir":
		c.ensureDir(r.Path)
	case "readdir":
		d, ok := c.dirs[r.Path]
		if !ok {
			resp.Code = "ENOENT"
			break
		}
		names := make([]string, 0, len(d))
		for n := range d {
			names = append(names, n)
		}
		sort.Strings(names)
		resp.Names = names
	default:
		panic("lustre: unknown mds op " + r.Op)
	}
	k()
}

// lockReq acquires a read lease; write intents revoke other holders.
type lockReq struct {
	Path   string
	Client int
	Write  bool
}

func (r *lockReq) WireSize() int64 { return 32 + int64(len(r.Path)) }

// handleLock serves lock acquisitions: a write intent revokes every other
// holder's cached pages before the writer proceeds.
func (c *Cluster) handleLock(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	r := req.(*lockReq)
	c.mdsThreads.Acquire(t, 1, func() {
		c.mdsNode.CPU.Use(t, c.cfg.MDSOpCPU, func() {
			done := func() {
				c.mdsThreads.Release(1)
				respond(&mdsResp{})
			}
			if m, ok := c.files[r.Path]; ok && r.Write {
				c.revokeLocked(t, r.Path, m, r.Client, done)
				return
			}
			done()
		})
	})
}

// revokeLocked drops every other client's cached pages for path. Each
// revocation is a callback RPC from the MDS to the holder, issued in
// sorted client order so identical runs revoke identically.
func (c *Cluster) revokeLocked(t *sim.Task, path string, m *meta, exceptClient int, k func()) {
	ids := make([]int, 0, len(m.holders))
	for id := range m.holders {
		if id != exceptClient {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var next func(i int)
	next = func(i int) {
		if i == len(ids) {
			k()
			return
		}
		id := ids[i]
		c.Revocations++
		// Callback RPC to the client; the client drops its pages.
		c.mdsNode.Call(t, m.holders[id].node, "lustre-client", &revokeMsg{Path: path}, func(fabric.Msg, error) {
			delete(m.holders, id)
			next(i + 1)
		})
	}
	next(0)
}

type revokeMsg struct{ Path string }

func (r *revokeMsg) WireSize() int64 { return 16 + int64(len(r.Path)) }

// --- OST protocol ---

type ostReq struct {
	Write bool
	Path  string
	Off   int64 // object-local offset
	Size  int64
	Data  blob.Blob
}

func (r *ostReq) WireSize() int64 { return 48 + int64(len(r.Path)) + r.Data.Len() }

type ostResp struct {
	Data blob.Blob
	Code string
}

func (r *ostResp) WireSize() int64 { return 16 + r.Data.Len() + int64(len(r.Code)) }

func (c *Cluster) makeOSTHandler(o *ost) fabric.Handler {
	return func(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
		r := req.(*ostReq)
		o.node.CPU.Use(t, c.cfg.OSTOpCPU, func() {
			o.store.Open(t, r.Path, func(fd gluster.FD, err error) {
				if err == nil {
					c.serveOST(t, o, r, fd, respond)
					return
				}
				o.store.Create(t, r.Path, func(fd gluster.FD, err error) {
					if err != nil {
						respond(&ostResp{Code: "EIO"})
						return
					}
					c.serveOST(t, o, r, fd, respond)
				})
			})
		})
	}
}

// serveOST performs one object read or write on an open descriptor,
// closing it before the response leaves.
func (c *Cluster) serveOST(t *sim.Task, o *ost, r *ostReq, fd gluster.FD, respond func(fabric.Msg)) {
	reply := func(resp *ostResp) {
		o.store.Close(t, fd, func(error) { respond(resp) })
	}
	if r.Write {
		o.store.Write(t, fd, r.Off, r.Data, func(_ int64, err error) {
			if err != nil {
				reply(&ostResp{Code: "EIO"})
				return
			}
			reply(&ostResp{})
		})
		return
	}
	o.store.Read(t, fd, r.Off, r.Size, func(data blob.Blob, err error) {
		if err != nil {
			reply(&ostResp{Code: "EIO"})
			return
		}
		reply(&ostResp{Data: data})
	})
}

func splitPath(path string) (dir, name string) {
	i := len(path) - 1
	for i >= 0 && path[i] != '/' {
		i--
	}
	if i <= 0 {
		return "/", path[i+1:]
	}
	return path[:i], path[i+1:]
}

func (c *Cluster) ensureDir(path string) map[string]struct{} {
	if d, ok := c.dirs[path]; ok {
		return d
	}
	dir, name := splitPath(path)
	pd := c.ensureDir(dir)
	pd[name] = struct{}{}
	d := make(map[string]struct{})
	c.dirs[path] = d
	return d
}

// OSTs exposes the data servers' storage for experiment diagnostics.
func (c *Cluster) OSTs() []*gluster.Posix {
	out := make([]*gluster.Posix, len(c.osts))
	for i, o := range c.osts {
		out[i] = o.store
	}
	return out
}
