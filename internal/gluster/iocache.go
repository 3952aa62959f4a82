package gluster

import (
	"container/list"
	"time"

	"imca/internal/blob"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// IOCache is a client-side page cache translator with NFS-style weak
// consistency: cached pages are served without contacting the server until
// their validation age exceeds the TTL, at which point a stat revalidates
// the file's mtime and drops the pages if it changed.
//
// It exists to demonstrate the paper's §3 motivation: a non-coherent
// client cache is fast for private data but can serve stale bytes under
// read/write sharing — exactly the failure mode IMCa's intermediate bank
// avoids (the bank is updated synchronously with server writes). GlusterFS
// ships this style of translator as io-cache; the paper's default
// configuration leaves it off.
type IOCache struct {
	env   *sim.Env
	child FS
	// TTL is the revalidation interval (GlusterFS io-cache default 1 s).
	ttl time.Duration
	// capacity bounds cached bytes.
	capacity int64

	files map[string]*ioFile
	fds   map[FD]string
	used  int64
	lru   *list.List // of ioKey

	// Stats
	Hits, Misses  uint64
	Revalidations uint64
	Stale         uint64 // revalidations that found a changed mtime
}

type ioKey struct {
	path string
	page int64
}

type ioFile struct {
	pages     map[int64]*ioPage
	mtime     sim.Time
	validated sim.Time
}

type ioPage struct {
	el   *list.Element
	data blob.Blob
}

const ioPageSize = 4096

var _ FS = (*IOCache)(nil)

// NewIOCache wraps child with a weakly-consistent client cache.
func NewIOCache(env *sim.Env, child FS, capacity int64, ttl time.Duration) *IOCache {
	if capacity <= 0 {
		capacity = 64 << 20
	}
	if ttl <= 0 {
		ttl = time.Second
	}
	return &IOCache{
		env: env, child: child, ttl: ttl, capacity: capacity,
		files: make(map[string]*ioFile),
		fds:   make(map[FD]string),
		lru:   list.New(),
	}
}

func (io *IOCache) fileFor(path string) *ioFile {
	f := io.files[path]
	if f == nil {
		f = &ioFile{pages: make(map[int64]*ioPage), validated: -1}
		io.files[path] = f
	}
	return f
}

func (io *IOCache) dropFile(path string) {
	f := io.files[path]
	if f == nil {
		return
	}
	for pg, p := range f.pages {
		io.used -= p.data.Len()
		io.lru.Remove(p.el)
		delete(f.pages, pg)
	}
}

func (io *IOCache) insert(path string, pg int64, data blob.Blob) {
	f := io.fileFor(path)
	if old, ok := f.pages[pg]; ok {
		io.used -= old.data.Len()
		io.lru.Remove(old.el)
	}
	p := &ioPage{data: data}
	p.el = io.lru.PushFront(ioKey{path, pg})
	f.pages[pg] = p
	io.used += data.Len()
	for io.used > io.capacity && io.lru.Len() > 0 {
		back := io.lru.Back()
		k := back.Value.(ioKey)
		victim := io.files[k.path].pages[k.page]
		io.used -= victim.data.Len()
		delete(io.files[k.path].pages, k.page)
		io.lru.Remove(back)
	}
}

// revalidate checks the file's mtime when the TTL has lapsed, dropping
// stale pages. It is the only coherency mechanism this translator has.
func (io *IOCache) revalidate(t *sim.Task, path string, k func()) {
	f := io.fileFor(path)
	now := io.env.Now()
	if f.validated >= 0 && now.Sub(f.validated) < io.ttl {
		k() // trust the cache inside the TTL window
		return
	}
	io.Revalidations++
	io.child.Stat(t, path, func(st *Stat, err error) {
		if err != nil {
			io.dropFile(path)
			k()
			return
		}
		if f.validated >= 0 && st.Mtime != f.mtime {
			io.Stale++
			io.dropFile(path)
		}
		f.mtime = st.Mtime
		f.validated = now
		k()
	})
}

// Create implements FS.
func (io *IOCache) Create(t *sim.Task, path string, k func(FD, error)) {
	io.child.Create(t, path, func(fd FD, err error) {
		if err == nil {
			io.fds[fd] = path
			io.dropFile(path)
		}
		k(fd, err)
	})
}

// Open implements FS.
func (io *IOCache) Open(t *sim.Task, path string, k func(FD, error)) {
	io.child.Open(t, path, func(fd FD, err error) {
		if err == nil {
			io.fds[fd] = path
		}
		k(fd, err)
	})
}

// Close implements FS. Pages persist past close (they may serve a later
// open within the TTL), as in io-cache.
func (io *IOCache) Close(t *sim.Task, fd FD, k func(error)) {
	delete(io.fds, fd)
	io.child.Close(t, fd, k)
}

// Read implements FS, serving cached pages without server contact inside
// the TTL window.
func (io *IOCache) Read(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	sp := optrace.StartSpan(t, optrace.LayerIOCache, "read")
	done := func(data blob.Blob, err error) {
		sp.End(t)
		k(data, err)
	}
	path, tracked := io.fds[fd]
	if !tracked || size <= 0 {
		io.child.Read(t, fd, off, size, done)
		return
	}
	io.revalidate(t, path, func() {
		f := io.fileFor(path)
		first := off / ioPageSize
		last := (off + size - 1) / ioPageSize
		for pg := first; pg <= last; pg++ {
			if _, ok := f.pages[pg]; !ok {
				io.Misses++
				sp.SetAttr("result", "miss")
				io.fill(t, fd, path, off, size, first, last, done)
				return
			}
		}
		io.Hits++
		sp.SetAttr("result", "hit")
		var parts []blob.Blob
		for pg := first; pg <= last; pg++ {
			page := f.pages[pg].data
			io.lru.MoveToFront(f.pages[pg].el)
			lo := int64(0)
			if pg == first {
				lo = off - pg*ioPageSize
			}
			hi := page.Len()
			if end := off + size - pg*ioPageSize; end < hi {
				hi = end
			}
			if lo >= hi {
				break
			}
			parts = append(parts, page.Slice(lo, hi))
		}
		done(blob.Concat(parts...), nil)
	})
}

// fill serves a read miss: fetch the whole page-aligned span of pages
// [first, last], cache it, and deliver the requested range.
func (io *IOCache) fill(t *sim.Task, fd FD, path string, off, size, first, last int64, k func(blob.Blob, error)) {
	lo := first * ioPageSize
	hi := (last + 1) * ioPageSize
	io.child.Read(t, fd, lo, hi-lo, func(data blob.Blob, err error) {
		if err != nil {
			k(blob.Blob{}, err)
			return
		}
		for pg := first; pg <= last; pg++ {
			plo := pg*ioPageSize - lo
			phi := plo + ioPageSize
			if phi > data.Len() {
				phi = data.Len()
			}
			if plo >= phi {
				break
			}
			io.insert(path, pg, data.Slice(plo, phi))
		}
		rlo := off - lo
		if rlo >= data.Len() {
			k(blob.Blob{}, nil)
			return
		}
		rhi := rlo + size
		if rhi > data.Len() {
			rhi = data.Len()
		}
		k(data.Slice(rlo, rhi), nil)
	})
}

// Write implements FS: write-through, patching our own cached pages and
// refreshing the validation stamp (writers see their own writes; other
// clients wait for their TTL).
func (io *IOCache) Write(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	sp := optrace.StartSpan(t, optrace.LayerIOCache, "write")
	io.child.Write(t, fd, off, data, func(n int64, err error) {
		path, tracked := io.fds[fd]
		if err != nil || !tracked {
			sp.End(t)
			k(n, err)
			return
		}
		// Invalidate overlapped pages (simpler and safe vs patching).
		f := io.fileFor(path)
		first := off / ioPageSize
		last := (off + n - 1) / ioPageSize
		for pg := first; pg <= last; pg++ {
			if pp, ok := f.pages[pg]; ok {
				io.used -= pp.data.Len()
				io.lru.Remove(pp.el)
				delete(f.pages, pg)
			}
		}
		io.child.Stat(t, path, func(st *Stat, serr error) {
			if serr == nil {
				f.mtime = st.Mtime
				f.validated = io.env.Now()
			}
			sp.End(t)
			k(n, nil)
		})
	})
}

// Stat implements FS (uncached; io-cache only caches data).
func (io *IOCache) Stat(t *sim.Task, path string, k func(*Stat, error)) {
	io.child.Stat(t, path, k)
}

// Unlink implements FS.
func (io *IOCache) Unlink(t *sim.Task, path string, k func(error)) {
	io.dropFile(path)
	delete(io.files, path)
	io.child.Unlink(t, path, k)
}

// Mkdir implements FS.
func (io *IOCache) Mkdir(t *sim.Task, path string, k func(error)) {
	io.child.Mkdir(t, path, k)
}

// Readdir implements FS.
func (io *IOCache) Readdir(t *sim.Task, path string, k func([]string, error)) {
	io.child.Readdir(t, path, k)
}

// Truncate implements FS.
func (io *IOCache) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	io.dropFile(path)
	io.child.Truncate(t, path, size, k)
}
