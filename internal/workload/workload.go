// Package workload implements the paper's benchmark drivers: the stat
// benchmark (§5.2), the single/multi-client latency benchmark (§5.3–5.4),
// the shared-file read/write-sharing benchmark (§5.6), and an IOzone-like
// streaming throughput benchmark (§5.5). Drivers operate on gluster.FS
// mounts, so the same code measures GlusterFS, IMCa, NFS, and Lustre.
//
// # Client engine
//
// Every client, and every untimed setup stage (file creation, opens), runs
// as a sim.Task: a heap-scheduled state machine with no goroutine behind
// it, issuing gluster.FS operations and continuing from their callbacks.
// A sequential stage is a continuation chain (see loop); a driver with
// many clients starts one task per client and joins them at barriers.
package workload

import (
	"fmt"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// CacheDropper is implemented by clients whose local cache can be dropped
// (Lustre's unmount/remount "cold cache" configuration).
type CacheDropper interface {
	DropCaches()
}

// loop runs body(i, next) for i = 0..n-1, each iteration starting when the
// previous one calls next, then runs done: the continuation form of a
// sequential for loop.
func loop(n int, body func(i int, next func()), done func()) {
	var step func(i int)
	step = func(i int) {
		if i == n {
			done()
			return
		}
		body(i, func() { step(i + 1) })
	}
	step(0)
}

// CreateFiles makes n empty files "<dir>/f<k>" through fs (the stat
// benchmark's untimed first stage). It runs the simulation to completion.
func CreateFiles(env *sim.Env, fs gluster.FS, dir string, n int) {
	paths := FilePaths(dir, n)
	env.StartTask("create-files", func(t *sim.Task) {
		loop(n, func(i int, next func()) {
			fs.Create(t, paths[i], func(fd gluster.FD, err error) {
				if err != nil {
					panic(fmt.Sprintf("workload: create %d: %v", i, err))
				}
				fs.Close(t, fd, func(err error) {
					if err != nil {
						panic(fmt.Sprintf("workload: close %d: %v", i, err))
					}
					next()
				})
			})
		}, t.End)
	})
	env.Run()
}

// fillFiles creates n files "<dir>/f<k>" through fs, each holding size
// synthetic bytes seeded by its index, and closes them (the untimed
// working-set stage of the small-file and open-loop benchmarks). It runs
// the simulation to completion.
func fillFiles(env *sim.Env, fs gluster.FS, dir string, n int, size int64) {
	env.StartTask("fill-files", func(t *sim.Task) {
		loop(n, func(i int, next func()) {
			fs.Create(t, FilePath(dir, i), func(fd gluster.FD, err error) {
				if err != nil {
					panic(fmt.Sprintf("workload: create: %v", err))
				}
				fs.Write(t, fd, 0, blob.Synthetic(uint64(i)+1, 0, size), func(_ int64, err error) {
					if err != nil {
						panic(fmt.Sprintf("workload: write: %v", err))
					}
					fs.Close(t, fd, func(err error) {
						if err != nil {
							panic(fmt.Sprintf("workload: close: %v", err))
						}
						next()
					})
				})
			})
		}, t.End)
	})
	env.Run()
}

// FilePath names the i'th benchmark file in dir.
func FilePath(dir string, i int) string {
	return fmt.Sprintf("%s/f%06d", dir, i)
}

// FilePaths names the first n benchmark files in dir, formatted once up
// front so per-operation benchmark loops pay no formatting cost. A stat
// benchmark at scale issues clients×files operations over the same n names;
// building them per operation was the workload driver's dominant host-side
// allocation.
func FilePaths(dir string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = FilePath(dir, i)
	}
	return out
}

// StatBench runs the timed stage of the stat benchmark: every client stats
// every one of the n files; the reported result is the maximum time any
// client needed (the paper's metric). It samples every file; see
// StatBenchStrided for the reduced-event variant.
func StatBench(env *sim.Env, mounts []gluster.FS, dir string, n int) sim.Duration {
	return statBench(env, mounts, FilePaths(dir, n), 1)
}

// StatBenchStrided is StatBench visiting only every stride'th file: a
// stratified sample of the same name population, in the same scan order,
// against the same created namespace. Virtual durations scale by roughly
// the stride (each client does 1/stride the work), while per-point host
// cost drops by the same factor — the basis of the fig5 -short mode. A
// stride of 1 is exactly StatBench.
func StatBenchStrided(env *sim.Env, mounts []gluster.FS, dir string, n, stride int) sim.Duration {
	if stride < 1 {
		stride = 1
	}
	paths := make([]string, 0, (n+stride-1)/stride)
	for i := 0; i < n; i += stride {
		paths = append(paths, FilePath(dir, i))
	}
	return statBench(env, mounts, paths, stride)
}

// statBench stats every path from every mount. Each client body keeps one
// continuation pair per client — the per-operation closure a
// naive recursion would allocate is exactly the kind of hot-path garbage
// the benchmark exists to measure around.
func statBench(env *sim.Env, mounts []gluster.FS, paths []string, stride int) sim.Duration {
	start := sim.NewBarrier(env, len(mounts))
	var maxElapsed sim.Duration
	record := func(t0, now sim.Time) {
		if d := now.Sub(t0); d > maxElapsed {
			maxElapsed = d
		}
	}
	for _, fs := range mounts {
		fs := fs
		env.StartTask("statbench", func(t *sim.Task) {
			start.Wait(t, func() {
				t0 := t.Now()
				i := 0
				var step func()
				onStat := func(_ *gluster.Stat, err error) {
					if err != nil {
						panic(fmt.Sprintf("workload: stat %d: %v", i*stride, err))
					}
					i++
					step()
				}
				step = func() {
					if i == len(paths) {
						record(t0, t.Now())
						t.End()
						return
					}
					fs.Stat(t, paths[i], onStat)
				}
				step()
			})
		})
	}
	env.Run()
	return maxElapsed
}

// LatencyOptions parameterizes the latency benchmark.
type LatencyOptions struct {
	// Dir is the working directory; each client uses its own file,
	// unless Shared selects the read/write-sharing variant where only
	// client 0 writes and everyone reads the same file.
	Dir string
	// RecordSizes to sweep (the paper: 1 byte to 64 KB+, powers of two).
	RecordSizes []int64
	// Records per measurement (the paper uses 1024).
	Records int
	Shared  bool
	// AfterWrite runs between the write and read stages (e.g. dropping
	// client caches for a Lustre cold-cache run).
	AfterWrite func()
	// BeforeReadSize runs before each record size's read measurement
	// (all clients held at a barrier), so cold-cache runs stay cold for
	// every record size rather than only the first.
	BeforeReadSize func(recordSize int64)
	// Trace wraps every measured record operation in an optrace
	// operation with a root span, accumulating per-layer latency
	// decompositions by record size. Tracing costs no virtual time, so
	// the measured latencies are identical with it on or off.
	Trace bool
	// KeepOps additionally retains every finished operation (implying
	// Trace) so the run can be exported as a trace file.
	KeepOps bool
}

// LatencyResult reports average per-operation times by record size.
type LatencyResult struct {
	Write map[int64]sim.Duration
	Read  map[int64]sim.Duration
	// WriteBreakdowns and ReadBreakdowns hold the per-record-size
	// latency decompositions accumulated when LatencyOptions.Trace is
	// set (nil otherwise).
	WriteBreakdowns map[int64]*optrace.Breakdown
	ReadBreakdowns  map[int64]*optrace.Breakdown
	// Ops lists every finished operation when LatencyOptions.KeepOps is
	// set: all writes then all reads, record sizes in sweep order,
	// completion order within a size.
	Ops []*optrace.Op
}

// traceStart begins a traced operation on the client actor when tracing is
// enabled and opens its root span; both helpers are no-ops with a nil
// collector slice.
func traceStart(a *sim.Task, cols []*optrace.Collector, si int, name string) *optrace.Span {
	if cols == nil {
		return nil
	}
	cols[si].Begin(a, name)
	return optrace.StartSpan(a, optrace.LayerOp, name)
}

// traceEnd closes the root span and folds the finished operation into its
// record size's breakdown.
func traceEnd(a *sim.Task, cols []*optrace.Collector, si int, root *optrace.Span) {
	if cols == nil {
		return
	}
	root.End(a)
	cols[si].End(a)
}

// newCollectors returns one collector per record size (nil unless traced).
func newCollectors(on, keep bool, n int) []*optrace.Collector {
	if !on && !keep {
		return nil
	}
	cols := make([]*optrace.Collector, n)
	for i := range cols {
		cols[i] = optrace.NewCollector()
		cols[i].Keep = keep
	}
	return cols
}

// collectOps appends the collectors' retained operations in sweep order.
func collectOps(dst []*optrace.Op, cols []*optrace.Collector) []*optrace.Op {
	for _, c := range cols {
		dst = append(dst, c.Ops()...)
	}
	return dst
}

// breakdownMap collects the per-size breakdowns keyed by record size.
func breakdownMap(cols []*optrace.Collector, sizes []int64) map[int64]*optrace.Breakdown {
	if cols == nil {
		return nil
	}
	out := make(map[int64]*optrace.Breakdown, len(sizes))
	for si, r := range sizes {
		out[r] = cols[si].Breakdown()
	}
	return out
}

// Latency runs the paper's latency benchmark: for each record size, every
// writer writes Records sequential records from the start of its file
// (separated by barriers), then the benchmark returns to the beginning and
// repeats with reads. Reported times are averaged over records and over
// clients.
func Latency(env *sim.Env, mounts []gluster.FS, opts LatencyOptions) LatencyResult {
	if opts.Records <= 0 {
		opts.Records = 1024
	}
	if len(opts.RecordSizes) == 0 {
		panic("workload: no record sizes")
	}
	nc := len(mounts)
	res := LatencyResult{
		Write: make(map[int64]sim.Duration, len(opts.RecordSizes)),
		Read:  make(map[int64]sim.Duration, len(opts.RecordSizes)),
	}

	// Open files on every client up front (the fd↔path database is
	// populated here; for IMCa this is also where open-purges land,
	// before any data is written).
	fds := make([]gluster.FD, nc)
	env.StartTask("latency-open", func(t *sim.Task) {
		loop(nc, func(ci int, next func()) {
			fs := mounts[ci]
			path := FilePath(opts.Dir, ci)
			if opts.Shared {
				path = opts.Dir + "/shared"
			}
			opened := func(fd gluster.FD, err error) {
				if err != nil {
					panic(fmt.Sprintf("workload: open client %d: %v", ci, err))
				}
				fds[ci] = fd
				next()
			}
			if opts.Shared && ci > 0 {
				fs.Open(t, path, opened)
				return
			}
			fs.Create(t, path, opened)
		}, t.End)
	})
	env.Run()

	writerCount := nc
	if opts.Shared {
		writerCount = 1
	}

	// Write stage: one barrier generation per record size.
	writeTotals := make([]sim.Duration, len(opts.RecordSizes))
	wcols := newCollectors(opts.Trace, opts.KeepOps, len(opts.RecordSizes))
	bar := sim.NewBarrier(env, writerCount)
	for ci := 0; ci < writerCount; ci++ {
		ci := ci
		fs := mounts[ci]
		env.StartTask("lat-write", func(t *sim.Task) {
			var bySize func(si int)
			bySize = func(si int) {
				if si == len(opts.RecordSizes) {
					t.End()
					return
				}
				r := opts.RecordSizes[si]
				bar.Wait(t, func() {
					t0 := t.Now()
					var rec func(n int)
					rec = func(n int) {
						if n == opts.Records {
							writeTotals[si] += t.Now().Sub(t0)
							bar.Wait(t, func() { bySize(si + 1) })
							return
						}
						off := int64(n) * r
						root := traceStart(t, wcols, si, "write")
						fs.Write(t, fds[ci], off, blob.Synthetic(uint64(ci)+1, off, r), func(_ int64, err error) {
							traceEnd(t, wcols, si, root)
							if err != nil {
								panic(fmt.Sprintf("workload: write: %v", err))
							}
							rec(n + 1)
						})
					}
					rec(0)
				})
			}
			bySize(0)
		})
	}
	env.Run()
	for si, r := range opts.RecordSizes {
		res.Write[r] = writeTotals[si] / sim.Duration(opts.Records*writerCount)
	}
	res.WriteBreakdowns = breakdownMap(wcols, opts.RecordSizes)

	if opts.AfterWrite != nil {
		opts.AfterWrite()
	}

	// Read stage: all clients participate.
	readTotals := make([]sim.Duration, len(opts.RecordSizes))
	rcols := newCollectors(opts.Trace, opts.KeepOps, len(opts.RecordSizes))
	rbar := sim.NewBarrier(env, nc)
	for ci := 0; ci < nc; ci++ {
		ci := ci
		seed := uint64(ci) + 1
		if opts.Shared {
			seed = 1
		}
		fs := mounts[ci]
		env.StartTask("lat-read", func(t *sim.Task) {
			var bySize func(si int)
			bySize = func(si int) {
				if si == len(opts.RecordSizes) {
					t.End()
					return
				}
				r := opts.RecordSizes[si]
				measure := func() {
					t0 := t.Now()
					var rec func(n int)
					rec = func(n int) {
						if n == opts.Records {
							readTotals[si] += t.Now().Sub(t0)
							rbar.Wait(t, func() { bySize(si + 1) })
							return
						}
						off := int64(n) * r
						root := traceStart(t, rcols, si, "read")
						fs.Read(t, fds[ci], off, r, func(data blob.Blob, err error) {
							traceEnd(t, rcols, si, root)
							if err != nil {
								panic(fmt.Sprintf("workload: read: %v", err))
							}
							if data.Len() > 0 && data.At(0) != blob.Synthetic(seed, off, 1).At(0) {
								panic("workload: read returned wrong data")
							}
							rec(n + 1)
						})
					}
					rec(0)
				}
				rbar.Wait(t, func() {
					if opts.BeforeReadSize != nil {
						if ci == 0 {
							opts.BeforeReadSize(r)
						}
						rbar.Wait(t, measure)
						return
					}
					measure()
				})
			}
			bySize(0)
		})
	}
	env.Run()
	for si, r := range opts.RecordSizes {
		res.Read[r] = readTotals[si] / sim.Duration(opts.Records*nc)
	}
	res.ReadBreakdowns = breakdownMap(rcols, opts.RecordSizes)
	if opts.KeepOps {
		res.Ops = collectOps(collectOps(nil, wcols), rcols)
	}
	return res
}

// ThroughputOptions parameterizes the IOzone-like streaming benchmark.
type ThroughputOptions struct {
	Dir        string
	FileSize   int64
	RecordSize int64
	// AfterWrite runs between the write and read stages.
	AfterWrite func()
	// ReRead adds a second read pass (IOzone's re-read test), which
	// measures the fully-warm path.
	ReRead bool
}

// ThroughputResult reports aggregate bandwidth in bytes per second of
// virtual time.
type ThroughputResult struct {
	WriteBps  float64
	ReadBps   float64
	ReReadBps float64
}

// Throughput streams FileSize bytes per client (each to its own file) in
// RecordSize units: a write pass, then a timed read pass. Aggregate
// bandwidth divides total bytes by the slowest client's elapsed time, as
// IOzone's throughput mode reports.
func Throughput(env *sim.Env, mounts []gluster.FS, opts ThroughputOptions) ThroughputResult {
	if opts.RecordSize <= 0 || opts.FileSize <= 0 || opts.FileSize%opts.RecordSize != 0 {
		panic("workload: bad throughput geometry")
	}
	nc := len(mounts)
	fds := make([]gluster.FD, nc)

	var res ThroughputResult

	// Write pass.
	bar := sim.NewBarrier(env, nc)
	var wStart, wEnd sim.Time
	for ci := 0; ci < nc; ci++ {
		ci := ci
		seed := uint64(ci) + 1
		fs := mounts[ci]
		env.StartTask("tput-write", func(t *sim.Task) {
			fs.Create(t, FilePath(opts.Dir, ci), func(fd gluster.FD, err error) {
				if err != nil {
					panic(fmt.Sprintf("workload: create: %v", err))
				}
				fds[ci] = fd
				bar.Wait(t, func() {
					if wStart == 0 {
						wStart = t.Now()
					}
					var rec func(off int64)
					rec = func(off int64) {
						if off >= opts.FileSize {
							if t.Now() > wEnd {
								wEnd = t.Now()
							}
							t.End()
							return
						}
						fs.Write(t, fds[ci], off, blob.Synthetic(seed, off, opts.RecordSize), func(_ int64, err error) {
							if err != nil {
								panic(fmt.Sprintf("workload: write: %v", err))
							}
							rec(off + opts.RecordSize)
						})
					}
					rec(0)
				})
			})
		})
	}
	env.Run()
	res.WriteBps = float64(opts.FileSize*int64(nc)) / wEnd.Sub(wStart).Seconds()

	if opts.AfterWrite != nil {
		opts.AfterWrite()
	}

	// Read pass (and optionally a re-read pass over the warm caches).
	readPass := func(name string) float64 {
		rbar := sim.NewBarrier(env, nc)
		var rStart, rEnd sim.Time
		for ci := 0; ci < nc; ci++ {
			ci := ci
			fs := mounts[ci]
			env.StartTask(name, func(t *sim.Task) {
				rbar.Wait(t, func() {
					if rStart == 0 {
						rStart = t.Now()
					}
					var rec func(off int64)
					rec = func(off int64) {
						if off >= opts.FileSize {
							if t.Now() > rEnd {
								rEnd = t.Now()
							}
							t.End()
							return
						}
						fs.Read(t, fds[ci], off, opts.RecordSize, func(data blob.Blob, err error) {
							if err != nil || data.Len() != opts.RecordSize {
								panic(fmt.Sprintf("workload: read %d bytes at %d: %v", data.Len(), off, err))
							}
							rec(off + opts.RecordSize)
						})
					}
					rec(0)
				})
			})
		}
		env.Run()
		return float64(opts.FileSize*int64(nc)) / rEnd.Sub(rStart).Seconds()
	}
	res.ReadBps = readPass("tput-read")
	if opts.ReRead {
		res.ReReadBps = readPass("tput-reread")
	}
	return res
}
