// Package nfssim models a single-server NFS deployment over a choice of
// transports (NFS/RDMA, NFS/TCP on IPoIB, NFS/TCP on GigE), reproducing
// the paper's motivation experiment (Fig. 1): multi-client read bandwidth
// collapses once the working set exceeds the server's memory, because a
// single server's disks cannot match the network.
//
// The protocol is stateless (NFSv3-style): clients address files by path
// and offset. Clients implement gluster.FS so the common workload drivers
// run unchanged.
package nfssim

import (
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// Config sizes the NFS server.
type Config struct {
	// ServerMemBytes bounds the server's page cache (the 4 GB / 8 GB
	// knob of Fig. 1).
	ServerMemBytes int64
	// Disks and DiskParams describe the backing RAID-0 array.
	Disks      int
	DiskParams disk.Params
	// Threads bounds nfsd concurrency.
	Threads int
	// OpCPU is the per-request server cost (kernel nfsd is lean).
	OpCPU sim.Duration
}

// DefaultConfig matches the paper's NFS server with the given RAM.
func DefaultConfig(memBytes int64) Config {
	return Config{
		ServerMemBytes: memBytes,
		Disks:          8,
		DiskParams:     disk.HighPoint2008,
		Threads:        8,
		OpCPU:          10 * time.Microsecond,
	}
}

// Server is an NFS server attached to a fabric node.
type Server struct {
	node    *fabric.Node
	store   *gluster.Posix
	threads *sim.Resource
	cfg     Config
}

// NewServer deploys an NFS server on node.
func NewServer(env *sim.Env, node *fabric.Node, cfg Config) *Server {
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	arr := disk.NewArray(env, cfg.Disks, 1<<20, cfg.DiskParams)
	s := &Server{
		node:    node,
		store:   gluster.NewPosix(env, gluster.PosixConfig{Dev: arr, CacheBytes: cfg.ServerMemBytes}),
		threads: sim.NewResource(env, cfg.Threads),
		cfg:     cfg,
	}
	node.Handle("nfsd", s.handle)
	return s
}

// Store exposes the underlying storage (for cache inspection in tests).
func (s *Server) Store() *gluster.Posix { return s.store }

type nfsReq struct {
	Op   string // create | read | write | stat | unlink
	Path string
	Off  int64
	Size int64
	Data blob.Blob
}

func (r *nfsReq) WireSize() int64 { return 48 + int64(len(r.Path)) + r.Data.Len() }

type nfsResp struct {
	Data blob.Blob
	St   *gluster.Stat
	Code string
}

func (r *nfsResp) WireSize() int64 {
	n := int64(16+len(r.Code)) + r.Data.Len()
	if r.St != nil {
		n += r.St.WireSize()
	}
	return n
}

func (s *Server) handle(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	r := req.(*nfsReq)
	s.threads.Acquire(t, 1, func() {
		s.node.CPU.Use(t, s.cfg.OpCPU, func() {
			s.serve(t, r, func(resp *nfsResp) {
				s.threads.Release(1)
				respond(resp)
			})
		})
	})
}

// serve runs one request against the export once an nfsd thread holds
// it and the daemon's CPU is charged.
func (s *Server) serve(t *sim.Task, r *nfsReq, k func(*nfsResp)) {
	switch r.Op {
	case "create":
		s.store.Create(t, r.Path, func(fd gluster.FD, err error) {
			if err != nil {
				k(&nfsResp{Code: "EEXIST"})
				return
			}
			s.store.Close(t, fd, func(error) { k(&nfsResp{}) })
		})
	case "read":
		s.store.Open(t, r.Path, func(fd gluster.FD, err error) {
			if err != nil {
				k(&nfsResp{Code: "ENOENT"})
				return
			}
			s.store.Read(t, fd, r.Off, r.Size, func(data blob.Blob, err error) {
				s.store.Close(t, fd, func(error) {
					if err != nil {
						k(&nfsResp{Code: "EIO"})
						return
					}
					k(&nfsResp{Data: data})
				})
			})
		})
	case "write":
		s.store.Open(t, r.Path, func(fd gluster.FD, err error) {
			if err != nil {
				k(&nfsResp{Code: "ENOENT"})
				return
			}
			s.store.Write(t, fd, r.Off, r.Data, func(_ int64, err error) {
				s.store.Close(t, fd, func(error) {
					if err != nil {
						k(&nfsResp{Code: "EIO"})
						return
					}
					k(&nfsResp{})
				})
			})
		})
	case "stat":
		s.store.Stat(t, r.Path, func(st *gluster.Stat, err error) {
			if err != nil {
				k(&nfsResp{Code: "ENOENT"})
				return
			}
			k(&nfsResp{St: st})
		})
	case "unlink":
		s.store.Unlink(t, r.Path, func(err error) {
			if err != nil {
				k(&nfsResp{Code: "ENOENT"})
				return
			}
			k(&nfsResp{})
		})
	default:
		panic("nfssim: unknown op " + r.Op)
	}
}

// Client is an NFS client on one fabric node. It performs no client-side
// caching (the experiment isolates server behaviour).
type Client struct {
	node    *fabric.Node
	server  *fabric.Node
	fdPaths map[gluster.FD]string
	nextFD  gluster.FD

	// rpcs counts NFS RPCs issued, registered by Register.
	rpcs uint64
}

var _ gluster.FS = (*Client)(nil)

// NewClient returns an NFS client on node mounting the server.
func NewClient(node *fabric.Node, server *Server) *Client {
	return &Client{node: node, server: server.node, fdPaths: make(map[gluster.FD]string)}
}

func (c *Client) call(t *sim.Task, req *nfsReq, k func(*nfsResp)) {
	c.rpcs++
	c.node.Call(t, c.server, "nfsd", req, func(resp fabric.Msg, _ error) { k(resp.(*nfsResp)) })
}

// Register exposes the NFS client's RPC counter under prefix (e.g.
// "nfs-client0"): every operation is at least one server round trip —
// the single-server bottleneck the motivation experiment measures.
func (c *Client) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".rpcs", func() uint64 { return c.rpcs })
}

// Create implements gluster.FS.
func (c *Client) Create(t *sim.Task, path string, k func(gluster.FD, error)) {
	c.call(t, &nfsReq{Op: "create", Path: path}, func(r *nfsResp) {
		if r.Code != "" {
			k(0, gluster.ErrExist)
			return
		}
		c.nextFD++
		c.fdPaths[c.nextFD] = path
		k(c.nextFD, nil)
	})
}

// Open implements gluster.FS (a lookup RPC validates existence).
func (c *Client) Open(t *sim.Task, path string, k func(gluster.FD, error)) {
	c.call(t, &nfsReq{Op: "stat", Path: path}, func(r *nfsResp) {
		if r.Code != "" {
			k(0, gluster.ErrNotExist)
			return
		}
		c.nextFD++
		c.fdPaths[c.nextFD] = path
		k(c.nextFD, nil)
	})
}

// Close implements gluster.FS.
func (c *Client) Close(t *sim.Task, fd gluster.FD, k func(error)) {
	if _, ok := c.fdPaths[fd]; !ok {
		k(gluster.ErrBadFD)
		return
	}
	delete(c.fdPaths, fd)
	k(nil)
}

// Read implements gluster.FS.
func (c *Client) Read(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	path, ok := c.fdPaths[fd]
	if !ok {
		k(blob.Blob{}, gluster.ErrBadFD)
		return
	}
	c.call(t, &nfsReq{Op: "read", Path: path, Off: off, Size: size}, func(r *nfsResp) {
		if r.Code != "" {
			k(blob.Blob{}, gluster.ErrNotExist)
			return
		}
		k(r.Data, nil)
	})
}

// Write implements gluster.FS.
func (c *Client) Write(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	path, ok := c.fdPaths[fd]
	if !ok {
		k(0, gluster.ErrBadFD)
		return
	}
	c.call(t, &nfsReq{Op: "write", Path: path, Off: off, Data: data}, func(r *nfsResp) {
		if r.Code != "" {
			k(0, gluster.ErrNotExist)
			return
		}
		k(data.Len(), nil)
	})
}

// Stat implements gluster.FS.
func (c *Client) Stat(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	c.call(t, &nfsReq{Op: "stat", Path: path}, func(r *nfsResp) {
		if r.Code != "" {
			k(nil, gluster.ErrNotExist)
			return
		}
		k(r.St, nil)
	})
}

// Unlink implements gluster.FS.
func (c *Client) Unlink(t *sim.Task, path string, k func(error)) {
	c.call(t, &nfsReq{Op: "unlink", Path: path}, func(r *nfsResp) {
		if r.Code != "" {
			k(gluster.ErrNotExist)
			return
		}
		k(nil)
	})
}

// Mkdir implements gluster.FS (directories are implicit server-side).
func (c *Client) Mkdir(t *sim.Task, path string, k func(error)) { k(nil) }

// Readdir implements gluster.FS (not used by the Fig. 1 workload).
func (c *Client) Readdir(t *sim.Task, path string, k func([]string, error)) {
	k(nil, gluster.ErrNotExist)
}

// Truncate implements gluster.FS (not used by the Fig. 1 workload).
func (c *Client) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	k(gluster.ErrNotExist)
}
