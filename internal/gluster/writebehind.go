package gluster

import (
	"sort"

	"imca/internal/blob"
	"imca/internal/sim"
)

// WriteBehind is the GlusterFS write-behind translator: small sequential
// writes are aggregated in a per-descriptor buffer and flushed to the
// child as one larger write when the buffer fills, the pattern breaks, or
// the file is closed. Reads and stats force a flush first so the caller
// always observes its own writes.
//
// Note the interaction the paper's design implies: stacking WriteBehind
// above CMCache changes nothing (CMCache forwards writes), but it delays
// when writes become persistent — GlusterFS disables it where strict
// persistence matters, so IMCa deployments leave it off by default.
type WriteBehind struct {
	child FS
	// bufferSize is the aggregation limit per descriptor (GlusterFS
	// default 1 MB; 128 KB here when zero keeps latencies bounded).
	bufferSize int64

	files map[FD]*wbState

	// Stats
	Flushes         uint64
	AggregatedBytes int64
}

type wbState struct {
	start   int64 // file offset of the buffered run
	pending blob.Blob
}

var _ FS = (*WriteBehind)(nil)

// NewWriteBehind wraps child with a write-aggregation buffer.
func NewWriteBehind(child FS, bufferSize int64) *WriteBehind {
	if bufferSize <= 0 {
		bufferSize = 128 << 10
	}
	return &WriteBehind{child: child, bufferSize: bufferSize, files: make(map[FD]*wbState)}
}

func (wb *WriteBehind) flush(t *sim.Task, fd FD, st *wbState, k func(error)) {
	if st == nil || st.pending.Len() == 0 {
		k(nil)
		return
	}
	wb.child.Write(t, fd, st.start, st.pending, func(_ int64, err error) {
		st.pending = blob.Blob{}
		wb.Flushes++
		k(err)
	})
}

// FlushAll flushes every descriptor's pending buffer (fsync-on-everything).
// Descriptors flush in sorted order: each flush is a simulated write, so
// map-order iteration would reorder I/O between identical runs.
func (wb *WriteBehind) FlushAll(t *sim.Task, k func(error)) {
	fds := make([]FD, 0, len(wb.files))
	for fd := range wb.files {
		fds = append(fds, fd)
	}
	sort.Slice(fds, func(i, j int) bool { return fds[i] < fds[j] })
	var first error
	var step func(i int)
	step = func(i int) {
		if i == len(fds) {
			k(first)
			return
		}
		wb.flush(t, fds[i], wb.files[fds[i]], func(err error) {
			if err != nil && first == nil {
				first = err
			}
			step(i + 1)
		})
	}
	step(0)
}

// Create implements FS.
func (wb *WriteBehind) Create(t *sim.Task, path string, k func(FD, error)) {
	wb.child.Create(t, path, func(fd FD, err error) {
		if err == nil {
			wb.files[fd] = &wbState{}
		}
		k(fd, err)
	})
}

// Open implements FS.
func (wb *WriteBehind) Open(t *sim.Task, path string, k func(FD, error)) {
	wb.child.Open(t, path, func(fd FD, err error) {
		if err == nil {
			wb.files[fd] = &wbState{}
		}
		k(fd, err)
	})
}

// Close implements FS, flushing buffered writes first.
func (wb *WriteBehind) Close(t *sim.Task, fd FD, k func(error)) {
	st, ok := wb.files[fd]
	if !ok {
		wb.child.Close(t, fd, k)
		return
	}
	wb.flush(t, fd, st, func(err error) {
		if err != nil {
			k(err)
			return
		}
		delete(wb.files, fd)
		wb.child.Close(t, fd, k)
	})
}

// Write implements FS: contiguous writes aggregate; anything else flushes
// the previous run first.
func (wb *WriteBehind) Write(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	st, tracked := wb.files[fd]
	if !tracked {
		wb.child.Write(t, fd, off, data, k)
		return
	}
	n := data.Len()
	buffer := func() {
		if st.pending.Len() == 0 {
			st.start = off
		}
		st.pending = blob.Concat(st.pending, data)
		wb.AggregatedBytes += n
		if st.pending.Len() < wb.bufferSize {
			k(n, nil)
			return
		}
		wb.flush(t, fd, st, func(err error) {
			if err != nil {
				k(0, err)
				return
			}
			k(n, nil)
		})
	}
	// A non-contiguous write flushes the current run first.
	if st.pending.Len() > 0 && off != st.start+st.pending.Len() {
		wb.flush(t, fd, st, func(err error) {
			if err != nil {
				k(0, err)
				return
			}
			buffer()
		})
		return
	}
	buffer()
}

// Read implements FS, flushing pending writes on the descriptor so the
// reader observes them.
func (wb *WriteBehind) Read(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	st, ok := wb.files[fd]
	if !ok {
		wb.child.Read(t, fd, off, size, k)
		return
	}
	wb.flush(t, fd, st, func(err error) {
		if err != nil {
			k(blob.Blob{}, err)
			return
		}
		wb.child.Read(t, fd, off, size, k)
	})
}

// Stat implements FS; pending data would falsify sizes, so flush
// everything for the path's descriptors first. (Cheap approximation:
// flush all — GlusterFS tracks per-inode.)
func (wb *WriteBehind) Stat(t *sim.Task, path string, k func(*Stat, error)) {
	wb.FlushAll(t, func(err error) {
		if err != nil {
			k(nil, err)
			return
		}
		wb.child.Stat(t, path, k)
	})
}

// Unlink implements FS.
func (wb *WriteBehind) Unlink(t *sim.Task, path string, k func(error)) {
	wb.child.Unlink(t, path, k)
}

// Mkdir implements FS.
func (wb *WriteBehind) Mkdir(t *sim.Task, path string, k func(error)) {
	wb.child.Mkdir(t, path, k)
}

// Readdir implements FS.
func (wb *WriteBehind) Readdir(t *sim.Task, path string, k func([]string, error)) {
	wb.child.Readdir(t, path, k)
}

// Truncate implements FS.
func (wb *WriteBehind) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	wb.FlushAll(t, func(err error) {
		if err != nil {
			k(err)
			return
		}
		wb.child.Truncate(t, path, size, k)
	})
}
