// Package trace records file system operation streams and replays them
// against any mount. Record a workload once (or import a trace from
// elsewhere), then replay it against NoCache, IMCa, or Lustre deployments
// to compare configurations on identical operation sequences — the
// methodology production storage evaluations use when synthetic benchmarks
// are not representative.
//
// A trace is client-partitioned: per-client operation order is preserved
// exactly on replay; cross-client interleaving is reproduced approximately
// (all clients start together and run at their natural speeds).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// Kind enumerates recordable operations.
type Kind string

// Operation kinds.
const (
	OpCreate   Kind = "create"
	OpOpen     Kind = "open"
	OpClose    Kind = "close"
	OpRead     Kind = "read"
	OpWrite    Kind = "write"
	OpStat     Kind = "stat"
	OpUnlink   Kind = "unlink"
	OpMkdir    Kind = "mkdir"
	OpReaddir  Kind = "readdir"
	OpTruncate Kind = "truncate"
)

// Op is one recorded operation. Reads and writes are positional; file
// identity is by path (descriptors are reconstructed on replay). Write
// payloads are regenerated synthetically from Seed, so traces stay tiny.
type Op struct {
	Client int
	Kind   Kind
	Path   string
	Off    int64
	Size   int64
	Seed   uint64
}

// Trace is an ordered operation list (global order = record order).
type Trace struct {
	Ops []Op
}

// PerClient splits the trace preserving each client's order.
func (t *Trace) PerClient() map[int][]Op {
	out := make(map[int][]Op)
	for _, op := range t.Ops {
		out[op.Client] = append(out[op.Client], op)
	}
	return out
}

// Encode writes the trace in a line-oriented text format:
//
//	<client> <kind> <path> <off> <size> <seed>
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, op := range t.Ops {
		if strings.ContainsAny(op.Path, " \n") {
			return fmt.Errorf("trace: path %q contains separators", op.Path)
		}
		if _, err := fmt.Fprintf(bw, "%d %s %s %d %d %d\n",
			op.Client, op.Kind, op.Path, op.Off, op.Size, op.Seed); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode parses a trace written by Encode. Blank lines and '#' comments
// are ignored.
func Decode(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 6 {
			return nil, fmt.Errorf("trace: line %d: want 6 fields, got %d", lineNo, len(f))
		}
		client, err1 := strconv.Atoi(f[0])
		off, err2 := strconv.ParseInt(f[3], 10, 64)
		size, err3 := strconv.ParseInt(f[4], 10, 64)
		seed, err4 := strconv.ParseUint(f[5], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("trace: line %d: bad numbers", lineNo)
		}
		t.Ops = append(t.Ops, Op{
			Client: client, Kind: Kind(f[1]), Path: f[2],
			Off: off, Size: size, Seed: seed,
		})
	}
	return t, sc.Err()
}

// Recorder wraps a mount and appends every operation to a shared Trace.
type Recorder struct {
	child  gluster.FS
	trace  *Trace
	client int
	paths  map[gluster.FD]string
}

var _ gluster.FS = (*Recorder)(nil)

// NewRecorder wraps child; operations are appended to trace tagged with
// the client id.
func NewRecorder(child gluster.FS, trace *Trace, client int) *Recorder {
	return &Recorder{child: child, trace: trace, client: client, paths: make(map[gluster.FD]string)}
}

func (r *Recorder) log(kind Kind, path string, off, size int64, seed uint64) {
	r.trace.Ops = append(r.trace.Ops, Op{
		Client: r.client, Kind: kind, Path: path, Off: off, Size: size, Seed: seed,
	})
}

// Create implements gluster.FS.
func (r *Recorder) Create(t *sim.Task, path string, k func(gluster.FD, error)) {
	r.child.Create(t, path, func(fd gluster.FD, err error) {
		if err == nil {
			r.paths[fd] = path
			r.log(OpCreate, path, 0, 0, 0)
		}
		k(fd, err)
	})
}

// Open implements gluster.FS.
func (r *Recorder) Open(t *sim.Task, path string, k func(gluster.FD, error)) {
	r.child.Open(t, path, func(fd gluster.FD, err error) {
		if err == nil {
			r.paths[fd] = path
			r.log(OpOpen, path, 0, 0, 0)
		}
		k(fd, err)
	})
}

// Close implements gluster.FS.
func (r *Recorder) Close(t *sim.Task, fd gluster.FD, k func(error)) {
	if path, ok := r.paths[fd]; ok {
		r.log(OpClose, path, 0, 0, 0)
		delete(r.paths, fd)
	}
	r.child.Close(t, fd, k)
}

// Read implements gluster.FS.
func (r *Recorder) Read(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	r.child.Read(t, fd, off, size, func(data blob.Blob, err error) {
		if path, ok := r.paths[fd]; ok && err == nil {
			r.log(OpRead, path, off, size, 0)
		}
		k(data, err)
	})
}

// Write implements gluster.FS. The payload's identity is reduced to a
// seed; replay regenerates equivalent synthetic bytes.
func (r *Recorder) Write(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	r.child.Write(t, fd, off, data, func(n int64, err error) {
		if path, ok := r.paths[fd]; ok && err == nil {
			r.log(OpWrite, path, off, data.Len(), data.Checksum())
		}
		k(n, err)
	})
}

// Stat implements gluster.FS.
func (r *Recorder) Stat(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	r.child.Stat(t, path, func(st *gluster.Stat, err error) {
		if err == nil {
			r.log(OpStat, path, 0, 0, 0)
		}
		k(st, err)
	})
}

// Unlink implements gluster.FS.
func (r *Recorder) Unlink(t *sim.Task, path string, k func(error)) {
	r.child.Unlink(t, path, r.logged(OpUnlink, path, 0, k))
}

// Mkdir implements gluster.FS.
func (r *Recorder) Mkdir(t *sim.Task, path string, k func(error)) {
	r.child.Mkdir(t, path, r.logged(OpMkdir, path, 0, k))
}

// Readdir implements gluster.FS.
func (r *Recorder) Readdir(t *sim.Task, path string, k func([]string, error)) {
	r.child.Readdir(t, path, func(names []string, err error) {
		if err == nil {
			r.log(OpReaddir, path, 0, 0, 0)
		}
		k(names, err)
	})
}

// Truncate implements gluster.FS.
func (r *Recorder) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	r.child.Truncate(t, path, size, r.logged(OpTruncate, path, size, k))
}

// logged wraps an error-only continuation so a successful operation is
// appended to the trace before k runs.
func (r *Recorder) logged(kind Kind, path string, size int64, k func(error)) func(error) {
	return func(err error) {
		if err == nil {
			r.log(kind, path, 0, size, 0)
		}
		k(err)
	}
}

// Result summarizes a replay.
type Result struct {
	// Elapsed is the span from the common start until the last client
	// finishes.
	Elapsed sim.Duration
	// OpCounts and OpTime aggregate per kind across clients.
	OpCounts map[Kind]int
	OpTime   map[Kind]sim.Duration
	// Errors counts operations that failed on replay (e.g. a stat of a
	// file another client had not yet created, due to loose cross-client
	// ordering).
	Errors int
}

// AvgOp returns the mean latency for one operation kind.
func (r *Result) AvgOp(k Kind) sim.Duration {
	if r.OpCounts[k] == 0 {
		return 0
	}
	return r.OpTime[k] / sim.Duration(r.OpCounts[k])
}

// Replay runs the trace against mounts (one per client id; ids beyond
// len(mounts) are mapped modulo). Per-client order is exact; clients start
// together.
func Replay(env *sim.Env, mounts []gluster.FS, t *Trace) *Result {
	res := &Result{
		OpCounts: make(map[Kind]int),
		OpTime:   make(map[Kind]sim.Duration),
	}
	per := t.PerClient()
	if len(per) == 0 {
		return res
	}
	// Start replay tasks in sorted client order: task creation order
	// feeds event sequence numbers, so iterating the map here would make
	// two replays of the same trace interleave differently.
	clients := make([]int, 0, len(per))
	for client := range per {
		clients = append(clients, client)
	}
	sort.Ints(clients)
	bar := sim.NewBarrier(env, len(per))
	var start, end sim.Time
	started := false
	for _, client := range clients {
		ops := per[client]
		fs := mounts[client%len(mounts)]
		env.StartTask(fmt.Sprintf("replay-%d", client), func(tk *sim.Task) {
			fds := make(map[string]gluster.FD)
			var step func(i int)
			step = func(i int) {
				if i == len(ops) {
					if tk.Now() > end {
						end = tk.Now()
					}
					tk.End()
					return
				}
				op := ops[i]
				t0 := tk.Now()
				applyOp(tk, fs, fds, op, func(err error) {
					res.OpCounts[op.Kind]++
					res.OpTime[op.Kind] += tk.Now().Sub(t0)
					if err != nil {
						res.Errors++
					}
					step(i + 1)
				})
			}
			bar.Wait(tk, func() {
				if !started {
					started = true
					start = tk.Now()
				}
				step(0)
			})
		})
	}
	env.Run()
	res.Elapsed = end.Sub(start)
	return res
}

func applyOp(t *sim.Task, fs gluster.FS, fds map[string]gluster.FD, op Op, k func(error)) {
	// withFD runs use on the path's open descriptor, opening it first if
	// this client has none.
	withFD := func(use func(gluster.FD)) {
		if fd, ok := fds[op.Path]; ok {
			use(fd)
			return
		}
		fs.Open(t, op.Path, func(fd gluster.FD, err error) {
			if err != nil {
				k(err)
				return
			}
			fds[op.Path] = fd
			use(fd)
		})
	}
	opened := func(fd gluster.FD, err error) {
		if err == nil {
			fds[op.Path] = fd
		}
		k(err)
	}
	switch op.Kind {
	case OpCreate:
		fs.Create(t, op.Path, opened)
	case OpOpen:
		fs.Open(t, op.Path, opened)
	case OpClose:
		fd, ok := fds[op.Path]
		if !ok {
			k(gluster.ErrBadFD)
			return
		}
		delete(fds, op.Path)
		fs.Close(t, fd, k)
	case OpRead:
		withFD(func(fd gluster.FD) {
			fs.Read(t, fd, op.Off, op.Size, func(_ blob.Blob, err error) { k(err) })
		})
	case OpWrite:
		withFD(func(fd gluster.FD) {
			data := blob.Synthetic(op.Seed|1, op.Off, op.Size)
			fs.Write(t, fd, op.Off, data, func(_ int64, err error) { k(err) })
		})
	case OpStat:
		fs.Stat(t, op.Path, func(_ *gluster.Stat, err error) { k(err) })
	case OpUnlink:
		fs.Unlink(t, op.Path, k)
	case OpMkdir:
		fs.Mkdir(t, op.Path, k)
	case OpReaddir:
		fs.Readdir(t, op.Path, func(_ []string, err error) { k(err) })
	case OpTruncate:
		fs.Truncate(t, op.Path, op.Size, k)
	default:
		k(fmt.Errorf("trace: unknown op kind %q", op.Kind))
	}
}
