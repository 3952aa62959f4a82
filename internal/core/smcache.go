package core

import (
	"sort"
	"strconv"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// SMCacheStats counts the server translator's cache maintenance work.
type SMCacheStats struct {
	// BlockPushes counts data blocks sent to the MCD bank; StatPushes
	// counts stat-structure updates; Purges counts keys deleted.
	BlockPushes uint64
	StatPushes  uint64
	Purges      uint64
	// ReadBacks counts the extra file-system reads issued after writes
	// to regenerate the covering aligned blocks.
	ReadBacks uint64
}

// SMCache is the server-side IMCa translator. It wraps the server's
// storage stack (its child, typically Posix) and mirrors completed
// operations into the MCD bank: stat structures at open/stat/write, data
// blocks after reads and writes. Open/close/delete purge the file's
// entries.
type SMCache struct {
	env   *sim.Env
	child gluster.FS
	mcd   *memcache.SimClient
	cfg   Config

	fdPaths map[gluster.FD]string
	// pushed tracks which block keys each path currently has in the MCD
	// bank, so purges delete exactly the resident keys.
	pushed map[string]map[int64]struct{}
	// skeys interns stat keys for the push/purge paths; shared with the
	// deployment's CMCaches via ShareStatKeys.
	skeys *KeyInterner

	Stats SMCacheStats
}

var _ gluster.FS = (*SMCache)(nil)

// NewSMCache wraps child with the server translator. mcd must be a client
// on the server's own node — its traffic models the extra server-side load
// the paper attributes to IMCa.
func NewSMCache(env *sim.Env, child gluster.FS, mcd *memcache.SimClient, cfg Config) *SMCache {
	return &SMCache{
		env:     env,
		child:   child,
		mcd:     mcd,
		cfg:     cfg,
		fdPaths: make(map[gluster.FD]string),
		pushed:  make(map[string]map[int64]struct{}),
		skeys:   NewKeyInterner(),
	}
}

// ShareStatKeys replaces the translator's private stat-key intern table
// with a deployment-wide one; see KeyInterner.
func (s *SMCache) ShareStatKeys(in *KeyInterner) { s.skeys = in }

// Child returns the wrapped storage stack.
func (s *SMCache) Child() gluster.FS { return s.child }

// Bank returns the MCD bank client (for stats inspection).
func (s *SMCache) Bank() *memcache.SimClient { return s.mcd }

// setPurged annotates a span with the number of purged keys.
func setPurged(sp *optrace.Span, n int) {
	if n > 0 {
		sp.SetAttr("purged", strconv.Itoa(n))
	}
}

// purgeData deletes the data blocks recorded for path, returning how many
// keys it removed. The stat entry stays valid (open/close do not change
// file contents' metadata beyond what the fresh stat push provides).
func (s *SMCache) purgeData(t *sim.Task, path string, k func(n int)) {
	blocks := make([]int64, 0, len(s.pushed[path]))
	for bo := range s.pushed[path] {
		blocks = append(blocks, bo)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	var step func(i int)
	step = func(i int) {
		if i == len(blocks) {
			delete(s.pushed, path)
			k(len(blocks))
			return
		}
		s.Stats.Purges++
		s.mcd.Delete(t, blockKey(path, blocks[i]), func(bool) { step(i + 1) })
	}
	step(0)
}

// purgeAll additionally removes the stat entry — used for deletes and
// truncates, where a stale stat would be a false positive.
func (s *SMCache) purgeAll(t *sim.Task, path string, k func(n int)) {
	s.Stats.Purges++
	s.mcd.Delete(t, s.skeys.get(path), func(bool) {
		s.purgeData(t, path, func(n int) { k(1 + n) })
	})
}

// pushStat stores a file's stat structure in the MCD bank.
func (s *SMCache) pushStat(t *sim.Task, st *gluster.Stat, k func()) {
	s.mcd.Set(t, s.skeys.get(st.Path), encodeStat(st), func(error) {
		s.Stats.StatPushes++
		k()
	})
}

// pushBlocks splits data (starting at the aligned offset alignedOff) into
// fixed-size blocks and stores each in the MCD bank.
func (s *SMCache) pushBlocks(t *sim.Task, path string, alignedOff int64, data blob.Blob, k func()) {
	bs := s.cfg.blockSize()
	set := s.pushed[path]
	if set == nil {
		set = make(map[int64]struct{})
		s.pushed[path] = set
	}
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
		bo := alignedOff + pos
		s.mcd.Set(t, blockKey(path, bo), data.Slice(pos, end), func(error) {
			set[bo] = struct{}{}
			s.Stats.BlockPushes++
			step(pos + bs)
		})
	}
	step(0)
}

// deferIf runs fn on the request's critical path before continuing with
// k, or — in Threaded mode — on a helper task of its own, continuing
// immediately (removing the MCD update from the request's critical path).
func (s *SMCache) deferIf(t *sim.Task, name string, fn func(q *sim.Task, k func()), k func()) {
	if s.cfg.Threaded {
		s.env.StartTask(name, func(q *sim.Task) { fn(q, q.End) })
		k()
		return
	}
	fn(t, k)
}

// Create implements gluster.FS.
func (s *SMCache) Create(t *sim.Task, path string, k func(gluster.FD, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "create")
	s.child.Create(t, path, func(fd gluster.FD, err error) {
		if err != nil {
			sp.End(t)
			k(fd, err)
			return
		}
		s.fdPaths[fd] = path
		s.purgeData(t, path, func(n int) { // a re-created path must not serve stale blocks
			setPurged(sp, n)
			s.child.Stat(t, path, func(st *gluster.Stat, serr error) {
				if serr != nil {
					sp.End(t)
					k(fd, nil)
					return
				}
				s.pushStat(t, st, func() {
					sp.End(t)
					k(fd, nil)
				})
			})
		})
	})
}

// Open implements gluster.FS: the MCDs are purged of data for the file,
// then the fresh stat structure is pushed (paper §4.3.2 and §4.2).
func (s *SMCache) Open(t *sim.Task, path string, k func(gluster.FD, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "open")
	s.child.Open(t, path, func(fd gluster.FD, err error) {
		if err != nil {
			sp.End(t)
			k(fd, err)
			return
		}
		s.fdPaths[fd] = path
		s.purgeData(t, path, func(n int) {
			setPurged(sp, n)
			s.child.Stat(t, path, func(st *gluster.Stat, serr error) {
				if serr != nil {
					sp.End(t)
					k(fd, nil)
					return
				}
				s.pushStat(t, st, func() {
					sp.End(t)
					k(fd, nil)
				})
			})
		})
	})
}

// Close implements gluster.FS: SMCache discards the file's data (not its
// stat entry) from the MCDs when the close arrives.
func (s *SMCache) Close(t *sim.Task, fd gluster.FD, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "close")
	path, ok := s.fdPaths[fd]
	if !ok {
		s.child.Close(t, fd, func(err error) {
			sp.End(t)
			k(err)
		})
		return
	}
	s.purgeData(t, path, func(n int) {
		setPurged(sp, n)
		delete(s.fdPaths, fd)
		s.child.Close(t, fd, func(err error) {
			sp.End(t)
			k(err)
		})
	})
}

// Read implements gluster.FS. The read is widened to block alignment so
// the completed data can be fed to the MCDs as whole blocks; the client's
// requested range is sliced out of the aligned result.
func (s *SMCache) Read(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "read")
	path, tracked := s.fdPaths[fd]
	if !tracked || size <= 0 {
		s.child.Read(t, fd, off, size, func(data blob.Blob, err error) {
			sp.End(t)
			k(data, err)
		})
		return
	}
	alignedOff, alignedSize := alignSpan(off, size, s.cfg.blockSize())
	s.child.Read(t, fd, alignedOff, alignedSize, func(data blob.Blob, err error) {
		if err != nil {
			sp.End(t)
			k(blob.Blob{}, err)
			return
		}
		s.deferIf(t, "smcache-read-push",
			func(q *sim.Task, k2 func()) { s.pushBlocks(q, path, alignedOff, data, k2) },
			func() {
				// Slice the caller's range out of the aligned read.
				lo := off - alignedOff
				if lo >= data.Len() {
					sp.End(t)
					k(blob.Blob{}, nil)
					return
				}
				hi := lo + size
				if hi > data.Len() {
					hi = data.Len()
				}
				sp.End(t)
				k(data.Slice(lo, hi), nil)
			})
	})
}

// Write implements gluster.FS. The write goes to the file system first
// (persistence), then SMCache re-reads the covering aligned span and feeds
// those blocks plus the updated stat to the MCDs. Overlapping writes and
// the fixed block size are why the written buffer cannot be pushed
// directly (paper §4.3.2). In Threaded mode the read-back and pushes leave
// the critical path.
func (s *SMCache) Write(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "write")
	path, tracked := s.fdPaths[fd]
	statBefore := func(k2 func(oldSize int64)) {
		// The pre-write size decides whether this write grows the file
		// past a partially-filled tail block, whose cached copy would
		// otherwise keep claiming end-of-file.
		if !tracked {
			k2(-1)
			return
		}
		s.child.Stat(t, path, func(st *gluster.Stat, serr error) {
			if serr == nil {
				k2(st.Size)
				return
			}
			k2(-1)
		})
	}
	statBefore(func(oldSize int64) {
		s.child.Write(t, fd, off, data, func(n int64, err error) {
			if err != nil || !tracked || n == 0 {
				sp.End(t)
				k(n, err)
				return
			}
			bs := s.cfg.blockSize()
			alignedOff, alignedSize := alignSpan(off, n, bs)
			s.deferIf(t, "smcache-write-push",
				func(q *sim.Task, k2 func()) {
					s.writeBack(q, fd, path, alignedOff, alignedSize, oldSize, off, n, bs, k2)
				},
				func() {
					sp.End(t)
					k(n, nil)
				})
		})
	})
}

// writeBack is Write's deferred read-back-and-push: re-read the covering
// aligned span, push its blocks, refresh a partially-filled old tail block
// the write grew past, and push the updated stat.
func (s *SMCache) writeBack(t *sim.Task, fd gluster.FD, path string, alignedOff, alignedSize, oldSize, off, n, bs int64, k func()) {
	s.child.Read(t, fd, alignedOff, alignedSize, func(back blob.Blob, rerr error) {
		if rerr != nil {
			k()
			return
		}
		s.Stats.ReadBacks++
		s.pushBlocks(t, path, alignedOff, back, func() {
			refreshTail := func(k2 func()) {
				oldTail := oldSize - oldSize%bs
				if !(oldSize > 0 && oldSize%bs != 0 && off+n > oldSize && alignedOff > oldTail) {
					k2()
					return
				}
				s.child.Read(t, fd, oldTail, bs, func(tb blob.Blob, terr error) {
					if terr != nil {
						k2()
						return
					}
					s.pushBlocks(t, path, oldTail, tb, k2)
				})
			}
			refreshTail(func() {
				s.child.Stat(t, path, func(st *gluster.Stat, serr error) {
					if serr != nil {
						k()
						return
					}
					s.pushStat(t, st, k)
				})
			})
		})
	})
}

// Stat implements gluster.FS, feeding the completed stat structure to the
// MCDs so later client stats hit the cache.
func (s *SMCache) Stat(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "stat")
	s.child.Stat(t, path, func(st *gluster.Stat, err error) {
		if err != nil {
			sp.End(t)
			k(nil, err)
			return
		}
		if st.IsDir {
			sp.End(t)
			k(st, nil)
			return
		}
		s.deferIf(t, "smcache-stat-push",
			func(q *sim.Task, k2 func()) { s.pushStat(q, st, k2) },
			func() {
				sp.End(t)
				k(st, nil)
			})
	})
}

// Mkdir implements gluster.FS.
func (s *SMCache) Mkdir(t *sim.Task, path string, k func(error)) {
	s.child.Mkdir(t, path, k)
}

// Readdir implements gluster.FS.
func (s *SMCache) Readdir(t *sim.Task, path string, k func([]string, error)) {
	s.child.Readdir(t, path, k)
}

// Truncate implements gluster.FS, purging cached blocks that may now lie
// past end of file.
func (s *SMCache) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "truncate")
	s.child.Truncate(t, path, size, func(err error) {
		if err != nil {
			sp.End(t)
			k(err)
			return
		}
		s.purgeAll(t, path, func(n int) {
			setPurged(sp, n)
			s.child.Stat(t, path, func(st *gluster.Stat, serr error) {
				if serr != nil {
					sp.End(t)
					k(nil)
					return
				}
				s.pushStat(t, st, func() {
					sp.End(t)
					k(nil)
				})
			})
		})
	})
}

// Unlink implements gluster.FS: the file's cache entries are removed so
// clients cannot see false positives for a deleted file (paper §4.2).
func (s *SMCache) Unlink(t *sim.Task, path string, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "unlink")
	s.child.Unlink(t, path, func(err error) {
		if err != nil {
			sp.End(t)
			k(err)
			return
		}
		s.purgeAll(t, path, func(n int) {
			setPurged(sp, n)
			sp.End(t)
			k(nil)
		})
	})
}
