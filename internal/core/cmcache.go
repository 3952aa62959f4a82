package core

import (
	"strconv"

	"imca/internal/blob"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// CMCacheStats counts cache interactions at the client translator.
type CMCacheStats struct {
	StatHits   uint64
	StatMisses uint64
	// ReadHits counts reads fully served from the MCD bank; ReadMisses
	// counts reads forwarded to the server because a covering block was
	// absent.
	ReadHits   uint64
	ReadMisses uint64
	// BlockLookups and BlockHits count individual covering blocks.
	BlockLookups uint64
	BlockHits    uint64
}

// CMCache is the client-side IMCa translator. It wraps the client's
// protocol stack (its child) and tries to serve Stat and Read from the MCD
// bank before involving the server.
type CMCache struct {
	child gluster.FS
	mcd   *memcache.SimClient
	cfg   Config

	// fdPaths is the paper's client-side "database" recording the
	// absolute path stored at Open for later Read key construction.
	fdPaths map[gluster.FD]string
	// skeys interns stat-structure MCD keys so the stat hot path does not
	// rebuild "<path>:stat" per operation. Private by default; deployments
	// share one table across all translators via ShareStatKeys.
	skeys *KeyInterner
	// statOps pools Stat's per-operation frames.
	statOps []*statOp

	Stats CMCacheStats

	// Stat/Read latency distributions, registered by Register; nil no-ops
	// otherwise.
	statHist, readHist *telemetry.Hist
	// fr records layer transitions (stat and read misses forwarded to the
	// server) under frName when attached via SetFlight.
	fr     *flight.Recorder
	frName string
}

var _ gluster.FS = (*CMCache)(nil)

// NewCMCache wraps child with the client translator using the given MCD
// bank client.
func NewCMCache(child gluster.FS, mcd *memcache.SimClient, cfg Config) *CMCache {
	return &CMCache{
		child:   child,
		mcd:     mcd,
		cfg:     cfg,
		fdPaths: make(map[gluster.FD]string),
		skeys:   NewKeyInterner(),
	}
}

// ShareStatKeys replaces the translator's private stat-key intern table
// with a deployment-wide one; see KeyInterner.
func (c *CMCache) ShareStatKeys(in *KeyInterner) { c.skeys = in }

// Bank returns the MCD bank client (for stats inspection).
func (c *CMCache) Bank() *memcache.SimClient { return c.mcd }

// SetFlight attaches a flight recorder under the given actor name: every
// miss this translator forwards down to the server appends one record.
// The bank client records its own deadline/ejection transitions, so it is
// wired here too.
func (c *CMCache) SetFlight(rec *flight.Recorder, name string) {
	c.fr = rec
	c.frName = name
	c.mcd.SetFlight(rec)
}

// assembleBlocks stitches the requested [off, off+size) range together from
// the covering cache blocks. A block shorter than the block size claims end
// of file — trustworthy only in the final covering block. A short block
// with more covering blocks behind it is an inconsistency (e.g. a stale
// tail block of a file that has since grown): returning the assembly would
// be a silent short read, so ok is false and the caller falls back to the
// server. Pure block arithmetic — shared by both client engines.
func assembleBlocks(items map[string]*memcache.Item, keys []string, offsets []int64, off, size, bs int64) (blob.Blob, bool) {
	var parts []blob.Blob
	want := size
	for i, bo := range offsets {
		b := items[keys[i]].Value
		lo := int64(0)
		if bo < off {
			lo = off - bo
		}
		if lo < b.Len() {
			hi := b.Len()
			if take := lo + want; take < hi {
				hi = take
			}
			parts = append(parts, b.Slice(lo, hi))
			want -= hi - lo
		}
		if want == 0 {
			break
		}
		if b.Len() < bs {
			if i < len(offsets)-1 {
				return blob.Blob{}, false
			}
			break // EOF in the final block: a legitimate short read
		}
	}
	return blob.Concat(parts...), true
}

// Create implements gluster.FS; create operations offer no caching
// opportunity and are forwarded directly (paper §4.2).
func (c *CMCache) Create(t *sim.Task, path string, k func(gluster.FD, error)) {
	c.child.Create(t, path, func(fd gluster.FD, err error) {
		if err == nil {
			c.fdPaths[fd] = path
		}
		k(fd, err)
	})
}

// Open implements gluster.FS, recording the path↔fd association.
func (c *CMCache) Open(t *sim.Task, path string, k func(gluster.FD, error)) {
	c.child.Open(t, path, func(fd gluster.FD, err error) {
		if err == nil {
			c.fdPaths[fd] = path
		}
		k(fd, err)
	})
}

// Close implements gluster.FS; closes propagate directly to the server.
func (c *CMCache) Close(t *sim.Task, fd gluster.FD, k func(error)) {
	delete(c.fdPaths, fd)
	c.child.Close(t, fd, k)
}

// statOp is Stat's pooled per-operation frame: the continuation state the
// two closures used to capture, with both legs prebound as method values so
// a steady-state stat allocates nothing client-side. The op returns to its
// translator's pool before k runs — by then every pooled field has been
// copied to locals, so k may immediately issue another stat that reuses it.
type statOp struct {
	c     *CMCache
	t     *sim.Task
	path  string
	k     func(*gluster.Stat, error)
	sp    *optrace.Span
	t0    sim.Time
	fnGot func(*memcache.Item, bool)
	fnFwd func(*gluster.Stat, error)
	// st is the scratch frame hit results decode into; &st is handed to k
	// as a borrow, valid only until this op's next bank hit. Stat callers
	// consume the structure inside their continuation (the engine is
	// single-threaded and the next decode is always behind another RPC),
	// so the borrow never outlives its window.
	st gluster.Stat
}

func newStatOp(c *CMCache) *statOp {
	op := &statOp{c: c}
	op.fnGot = op.got
	op.fnFwd = op.fwd
	return op
}

func (c *CMCache) takeStatOp() *statOp {
	if n := len(c.statOps); n > 0 {
		op := c.statOps[n-1]
		c.statOps[n-1] = nil
		c.statOps = c.statOps[:n-1]
		return op
	}
	return newStatOp(c)
}

func (op *statOp) release() {
	op.t, op.k, op.sp = nil, nil, nil
	op.path = ""
	op.c.statOps = append(op.c.statOps, op)
}

// got is the bank-lookup continuation: serve the hit or fall back to the
// server.
func (op *statOp) got(it *memcache.Item, ok bool) {
	c, t, sp := op.c, op.t, op.sp
	if ok {
		if err := decodeStatInto(&op.st, it.Value, op.path); err == nil {
			st := &op.st
			c.Stats.StatHits++
			sp.SetAttr("result", "hit")
			sp.End(t)
			c.statHist.ObserveSince(t, op.t0)
			k := op.k
			op.release()
			k(st, nil)
			return
		}
	}
	c.Stats.StatMisses++
	sp.SetAttr("result", "miss")
	c.fr.Append(t.Now(), flight.KindForward, c.frName, "stat", 0)
	optrace.ClearDeadline(t)
	c.child.Stat(t, op.path, op.fnFwd)
}

// fwd is the server-fallback continuation.
func (op *statOp) fwd(st *gluster.Stat, err error) {
	t, sp, k := op.t, op.sp, op.k
	sp.End(t)
	op.c.statHist.ObserveSince(t, op.t0)
	op.release()
	k(st, err)
}

// Stat implements gluster.FS: it first attempts to fetch the stat
// structure from the MCD bank and falls back to the server on a miss. Any
// cache-budget deadline is spent once the bank answers (or fails to): the
// server fallback must complete.
func (c *CMCache) Stat(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	op := c.takeStatOp()
	op.t, op.path, op.k = t, path, k
	op.sp = optrace.StartSpan(t, optrace.LayerCMCache, "stat")
	op.t0 = t.Now()
	c.mcd.Get(t, c.skeys.get(path), op.fnGot)
}

// Read implements gluster.FS. The path stored at Open plus each covering
// aligned block offset form the MCD keys; if every covering block is
// present the read is assembled locally, otherwise the entire read is
// forwarded to the server (making cold misses more expensive than the
// native file system, as the paper notes).
func (c *CMCache) Read(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	if size <= 0 {
		k(blob.Blob{}, nil)
		return
	}
	path, ok := c.fdPaths[fd]
	if !ok {
		// Descriptor not opened through this translator; pass through.
		c.child.Read(t, fd, off, size, k)
		return
	}
	sp := optrace.StartSpan(t, optrace.LayerCMCache, "read")
	sp.SetAttr("bytes", strconv.FormatInt(size, 10))
	t0 := t.Now()
	bs := c.cfg.blockSize()
	offsets := blockOffsets(off, size, bs)
	keys := make([]string, len(offsets))
	for i, bo := range offsets {
		keys[i] = blockKey(path, bo)
	}
	c.Stats.BlockLookups += uint64(len(keys))
	c.mcd.GetMulti(t, keys, func(items map[string]*memcache.Item) {
		c.Stats.BlockHits += uint64(len(items))
		if len(items) < len(keys) {
			sp.SetAttr("result", "miss")
			c.forwardRead(t, fd, path, off, size, func(data blob.Blob, err error) {
				sp.End(t)
				c.readHist.ObserveSince(t, t0)
				k(data, err)
			})
			return
		}
		data, ok := assembleBlocks(items, keys, offsets, off, size, bs)
		if !ok {
			sp.SetAttr("result", "short-miss")
			c.forwardRead(t, fd, path, off, size, func(data blob.Blob, err error) {
				sp.End(t)
				c.readHist.ObserveSince(t, t0)
				k(data, err)
			})
			return
		}
		c.Stats.ReadHits++
		sp.SetAttr("result", "hit")
		sp.End(t)
		c.readHist.ObserveSince(t, t0)
		k(data, nil)
	})
}

// forwardRead satisfies a read from the server after the MCD bank could
// not. The cache-budget deadline (if any) is spent: the server path is
// authoritative and must complete.
func (c *CMCache) forwardRead(t *sim.Task, fd gluster.FD, path string, off, size int64, k func(blob.Blob, error)) {
	c.Stats.ReadMisses++
	c.fr.Append(t.Now(), flight.KindForward, c.frName, "read", size)
	optrace.ClearDeadline(t)
	if !c.cfg.ClientPopulate {
		c.child.Read(t, fd, off, size, k)
		return
	}
	bs := c.cfg.blockSize()
	alignedOff, alignedSize := alignSpan(off, size, bs)
	c.child.Read(t, fd, alignedOff, alignedSize, func(data blob.Blob, err error) {
		if err != nil {
			k(blob.Blob{}, err)
			return
		}
		c.pushBlocks(t, path, alignedOff, data, func() {
			lo := off - alignedOff
			if lo >= data.Len() {
				k(blob.Blob{}, nil)
				return
			}
			hi := lo + size
			if hi > data.Len() {
				hi = data.Len()
			}
			k(data.Slice(lo, hi), nil)
		})
	})
}

// Write implements gluster.FS; CMCache does not intercept writes — they
// must be persistent, so they go straight to the server (paper §4.3.2).
// In client-populate mode the completed write's aligned span is re-read
// and pushed to the MCD bank, mirroring what SMCache does server-side.
func (c *CMCache) Write(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	sp := optrace.StartSpan(t, optrace.LayerCMCache, "write")
	sp.SetAttr("bytes", strconv.FormatInt(data.Len(), 10))
	if !c.cfg.ClientPopulate {
		c.child.Write(t, fd, off, data, func(n int64, err error) {
			sp.End(t)
			k(n, err)
		})
		return
	}
	path, tracked := c.fdPaths[fd]
	statBefore := func(k2 func(oldSize int64)) {
		if !tracked {
			k2(-1)
			return
		}
		c.child.Stat(t, path, func(st *gluster.Stat, serr error) {
			if serr == nil {
				k2(st.Size)
				return
			}
			k2(-1)
		})
	}
	statBefore(func(oldSize int64) {
		c.child.Write(t, fd, off, data, func(n int64, err error) {
			if err != nil || n == 0 || !tracked {
				sp.End(t)
				k(n, err)
				return
			}
			bs := c.cfg.blockSize()
			alignedOff, alignedSize := alignSpan(off, n, bs)
			c.child.Read(t, fd, alignedOff, alignedSize, func(back blob.Blob, rerr error) {
				if rerr != nil {
					sp.End(t)
					k(n, nil)
					return
				}
				c.pushBlocks(t, path, alignedOff, back, func() {
					refreshTail := func(k2 func()) {
						// Refresh the old tail block when the file grows
						// past it (see SMCache.Write).
						oldTail := oldSize - oldSize%bs
						if !(oldSize > 0 && oldSize%bs != 0 && off+n > oldSize && alignedOff > oldTail) {
							k2()
							return
						}
						c.child.Read(t, fd, oldTail, bs, func(tb blob.Blob, terr error) {
							if terr != nil {
								k2()
								return
							}
							c.pushBlocks(t, path, oldTail, tb, k2)
						})
					}
					refreshTail(func() {
						c.child.Stat(t, path, func(st *gluster.Stat, serr error) {
							if serr != nil {
								sp.End(t)
								k(n, nil)
								return
							}
							c.mcd.Set(t, c.skeys.get(path), encodeStat(st), func(error) {
								sp.End(t)
								k(n, nil)
							})
						})
					})
				})
			})
		})
	})
}

// pushBlocks splits aligned data into blocks and stores each in the bank.
func (c *CMCache) pushBlocks(t *sim.Task, path string, alignedOff int64, data blob.Blob, k func()) {
	bs := c.cfg.blockSize()
	var step func(pos int64)
	step = func(pos int64) {
		if pos >= data.Len() {
			k()
			return
		}
		end := pos + bs
		if end > data.Len() {
			end = data.Len()
		}
		c.mcd.Set(t, blockKey(path, alignedOff+pos), data.Slice(pos, end), func(error) {
			step(pos + bs)
		})
	}
	step(0)
}

// Unlink implements gluster.FS; deletes are forwarded without
// interception (the server-side translator purges the MCD entries).
func (c *CMCache) Unlink(t *sim.Task, path string, k func(error)) {
	c.child.Unlink(t, path, k)
}

// Mkdir implements gluster.FS.
func (c *CMCache) Mkdir(t *sim.Task, path string, k func(error)) { c.child.Mkdir(t, path, k) }

// Readdir implements gluster.FS.
func (c *CMCache) Readdir(t *sim.Task, path string, k func([]string, error)) {
	c.child.Readdir(t, path, k)
}

// Truncate implements gluster.FS.
func (c *CMCache) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	c.child.Truncate(t, path, size, k)
}
