package gluster

import (
	"imca/internal/blob"
	"imca/internal/sim"
)

// ReadAhead is the GlusterFS read-ahead translator: when it detects a
// sequential read pattern on a descriptor, it requests more than asked
// from its child and serves subsequent reads from the prefetched window.
// The paper notes GlusterFS ships this translator (§2.1); it is a
// *client-side* window per descriptor, unlike the server page cache.
type ReadAhead struct {
	child FS
	// WindowSize is how much to prefetch past the requested range.
	windowSize int64

	files map[FD]*raState

	// Stats
	PrefetchedBytes int64
	ServedFromRA    int64
}

type raState struct {
	nextOff int64 // expected offset for a sequential read
	winOff  int64 // prefetched window [winOff, winOff+win.Len())
	win     blob.Blob
	seq     bool
}

var _ FS = (*ReadAhead)(nil)

// NewReadAhead wraps child with a read-ahead window of the given size
// (GlusterFS default: a few blocks; 128 KB here when zero).
func NewReadAhead(child FS, windowSize int64) *ReadAhead {
	if windowSize <= 0 {
		windowSize = 128 << 10
	}
	return &ReadAhead{child: child, windowSize: windowSize, files: make(map[FD]*raState)}
}

// Create implements FS.
func (ra *ReadAhead) Create(t *sim.Task, path string, k func(FD, error)) {
	ra.child.Create(t, path, func(fd FD, err error) {
		if err == nil {
			ra.files[fd] = &raState{}
		}
		k(fd, err)
	})
}

// Open implements FS.
func (ra *ReadAhead) Open(t *sim.Task, path string, k func(FD, error)) {
	ra.child.Open(t, path, func(fd FD, err error) {
		if err == nil {
			ra.files[fd] = &raState{}
		}
		k(fd, err)
	})
}

// Close implements FS.
func (ra *ReadAhead) Close(t *sim.Task, fd FD, k func(error)) {
	delete(ra.files, fd)
	ra.child.Close(t, fd, k)
}

// Read implements FS. Sequential patterns trigger prefetch; random reads
// pass through untouched.
func (ra *ReadAhead) Read(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	st, tracked := ra.files[fd]
	if !tracked || size <= 0 {
		ra.child.Read(t, fd, off, size, k)
		return
	}

	// Served entirely from the prefetched window?
	if off >= st.winOff && off+size <= st.winOff+st.win.Len() {
		ra.ServedFromRA += size
		st.nextOff = off + size
		k(st.win.Slice(off-st.winOff, off-st.winOff+size), nil)
		return
	}

	sequential := off == st.nextOff
	st.nextOff = off + size
	if !sequential {
		st.seq = false
		ra.child.Read(t, fd, off, size, k)
		return
	}
	if !st.seq {
		// Second sequential read in a row: start prefetching next time.
		st.seq = true
		ra.child.Read(t, fd, off, size, k)
		return
	}

	// Sequential stream: fetch the request plus one window in a single
	// child read, serve the head, keep the tail.
	ra.child.Read(t, fd, off, size+ra.windowSize, func(data blob.Blob, err error) {
		if err != nil {
			k(blob.Blob{}, err)
			return
		}
		if data.Len() > size {
			st.winOff = off
			st.win = data
			ra.PrefetchedBytes += data.Len() - size
		}
		if data.Len() >= size {
			k(data.Slice(0, size), nil)
			return
		}
		k(data, nil)
	})
}

// Write implements FS, invalidating any window overlapping the write.
func (ra *ReadAhead) Write(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	if st, ok := ra.files[fd]; ok {
		// Invalidate any overlapping window.
		if off < st.winOff+st.win.Len() && off+data.Len() > st.winOff {
			st.win = blob.Blob{}
		}
	}
	ra.child.Write(t, fd, off, data, k)
}

// Stat implements FS.
func (ra *ReadAhead) Stat(t *sim.Task, path string, k func(*Stat, error)) {
	ra.child.Stat(t, path, k)
}

// Unlink implements FS.
func (ra *ReadAhead) Unlink(t *sim.Task, path string, k func(error)) {
	ra.child.Unlink(t, path, k)
}

// Mkdir implements FS.
func (ra *ReadAhead) Mkdir(t *sim.Task, path string, k func(error)) {
	ra.child.Mkdir(t, path, k)
}

// Readdir implements FS.
func (ra *ReadAhead) Readdir(t *sim.Task, path string, k func([]string, error)) {
	ra.child.Readdir(t, path, k)
}

// Truncate implements FS.
func (ra *ReadAhead) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	for _, st := range ra.files {
		st.win = blob.Blob{}
	}
	ra.child.Truncate(t, path, size, k)
}
