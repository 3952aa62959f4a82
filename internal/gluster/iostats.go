package gluster

import (
	"fmt"
	"io"
	"sort"

	"imca/internal/blob"
	"imca/internal/metrics"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// IOStats is GlusterFS's io-stats translator: a transparent layer that
// counts operations, bytes, and per-operation latency histograms. Insert
// it anywhere in a stack to see what that level observes — e.g. above and
// below CMCache to quantify exactly what the cache absorbs.
type IOStats struct {
	env   *sim.Env
	child FS

	ops    map[string]*metrics.Histogram
	ReadB  int64
	WriteB int64
}

var _ FS = (*IOStats)(nil)

// NewIOStats wraps child with operation accounting.
func NewIOStats(env *sim.Env, child FS) *IOStats {
	return &IOStats{env: env, child: child, ops: make(map[string]*metrics.Histogram)}
}

// begin opens an operation's span and returns its completion: record the
// latency, then close the span.
func (s *IOStats) begin(t *sim.Task, name string) func() {
	sp := optrace.StartSpan(t, optrace.LayerIOStats, name)
	start := t.Now()
	return func() {
		s.observe(name, start)
		sp.End(t)
	}
}

func (s *IOStats) observe(name string, start sim.Time) {
	h := s.ops[name]
	if h == nil {
		h = &metrics.Histogram{}
		s.ops[name] = h
	}
	h.Observe(s.env.Now().Sub(start))
}

// Op returns the latency histogram for one operation type (nil if never
// called).
func (s *IOStats) Op(name string) *metrics.Histogram { return s.ops[name] }

// Dump writes a per-operation summary.
func (s *IOStats) Dump(w io.Writer) {
	names := make([]string, 0, len(s.ops))
	for n := range s.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.ops[n]
		fmt.Fprintf(w, "%-9s n=%-7d mean=%-12v p99=%v\n", n, h.Count(), h.Mean(), h.Quantile(0.99))
	}
	fmt.Fprintf(w, "bytes: read %d, written %d\n", s.ReadB, s.WriteB)
}

// Create implements FS.
func (s *IOStats) Create(t *sim.Task, path string, k func(FD, error)) {
	end := s.begin(t, "create")
	s.child.Create(t, path, func(fd FD, err error) {
		end()
		k(fd, err)
	})
}

// Open implements FS.
func (s *IOStats) Open(t *sim.Task, path string, k func(FD, error)) {
	end := s.begin(t, "open")
	s.child.Open(t, path, func(fd FD, err error) {
		end()
		k(fd, err)
	})
}

// Close implements FS.
func (s *IOStats) Close(t *sim.Task, fd FD, k func(error)) {
	end := s.begin(t, "close")
	s.child.Close(t, fd, func(err error) {
		end()
		k(err)
	})
}

// Read implements FS.
func (s *IOStats) Read(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	end := s.begin(t, "read")
	s.child.Read(t, fd, off, size, func(data blob.Blob, err error) {
		end()
		s.ReadB += data.Len()
		k(data, err)
	})
}

// Write implements FS.
func (s *IOStats) Write(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	end := s.begin(t, "write")
	s.child.Write(t, fd, off, data, func(n int64, err error) {
		end()
		s.WriteB += n
		k(n, err)
	})
}

// Stat implements FS.
func (s *IOStats) Stat(t *sim.Task, path string, k func(*Stat, error)) {
	end := s.begin(t, "stat")
	s.child.Stat(t, path, func(st *Stat, err error) {
		end()
		k(st, err)
	})
}

// Unlink implements FS.
func (s *IOStats) Unlink(t *sim.Task, path string, k func(error)) {
	end := s.begin(t, "unlink")
	s.child.Unlink(t, path, func(err error) {
		end()
		k(err)
	})
}

// Mkdir implements FS.
func (s *IOStats) Mkdir(t *sim.Task, path string, k func(error)) {
	end := s.begin(t, "mkdir")
	s.child.Mkdir(t, path, func(err error) {
		end()
		k(err)
	})
}

// Readdir implements FS.
func (s *IOStats) Readdir(t *sim.Task, path string, k func([]string, error)) {
	end := s.begin(t, "readdir")
	s.child.Readdir(t, path, func(names []string, err error) {
		end()
		k(names, err)
	})
}

// Truncate implements FS.
func (s *IOStats) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	end := s.begin(t, "truncate")
	s.child.Truncate(t, path, size, func(err error) {
		end()
		k(err)
	})
}
