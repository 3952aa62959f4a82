package fault

import (
	"bytes"
	"fmt"
	"sort"

	"imca/internal/blob"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// Oracle wraps a mount and checks the paper's §4.4 correctness argument at
// runtime: because writes are persistent at the server before they are
// acknowledged, losing any part of the cache bank may cost performance but
// never data. The oracle shadows every acknowledged mutation in host
// memory (outside the simulation, costing no virtual time) and flags two
// invariant violations:
//
//   - lost write: an acknowledged write, truncate, create, or unlink whose
//     effect later disappears;
//   - stale read: a read or stat that returns data differing from the
//     shadow at the instant of the call.
//
// The oracle assumes a failed operation did not apply, which holds for the
// fault kinds the fuzz harness injects (MCD crashes, client↔MCD link
// faults, disk slowdowns, and brick outages — brick refusals happen before
// storage is touched). Faults that drop a server's acknowledgement after
// the write applied would need a weaker shadow and are out of scope, as
// are concurrent writers to one file (the shadow is a single sequential
// history, matching the paper's per-client benchmarks).
type Oracle struct {
	child      gluster.FS
	shadow     map[string][]byte
	fds        map[gluster.FD]string
	violations []string

	// Audit counters, exposed via Register: how many operations the oracle
	// actually compared against the shadow (an oracle that checks nothing
	// reports zero violations too) and how many mutations it absorbed.
	readChecks uint64
	statChecks uint64
	mutations  uint64

	// fr, when attached, records a flight entry per violation so a dump
	// shows what the cluster was doing when the invariant broke.
	fr *flight.Recorder
}

var _ gluster.FS = (*Oracle)(nil)

// NewOracle wraps child. Attach it above the FUSE layer of one mount and
// route that client's whole workload through it; files that bypass the
// oracle are not tracked.
func NewOracle(child gluster.FS) *Oracle {
	return &Oracle{
		child:  child,
		shadow: make(map[string][]byte),
		fds:    make(map[gluster.FD]string),
	}
}

// Violations returns every invariant violation observed so far.
func (o *Oracle) Violations() []string { return o.violations }

// Register exposes the oracle's audit activity under prefix: the check
// counters say how much scrutiny the run actually applied (a zero-violation
// run with zero checks proves nothing), the gauges size the shadow, and the
// violations counter is the headline number a dashboard would alarm on.
func (o *Oracle) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".read_checks", func() uint64 { return o.readChecks })
	reg.Counter(prefix+".stat_checks", func() uint64 { return o.statChecks })
	reg.Counter(prefix+".mutations", func() uint64 { return o.mutations })
	reg.Counter(prefix+".violations", func() uint64 { return uint64(len(o.violations)) })
	reg.Gauge(prefix+".shadow_files", func() float64 { return float64(len(o.shadow)) })
	reg.Gauge(prefix+".shadow_bytes", func() float64 {
		var total int64
		for _, content := range o.shadow {
			total += int64(len(content))
		}
		return float64(total)
	})
}

// SetFlight attaches a flight recorder; each violation appends one record.
func (o *Oracle) SetFlight(rec *flight.Recorder) { o.fr = rec }

func (o *Oracle) violate(t *sim.Task, format string, args ...interface{}) {
	msg := fmt.Sprintf("t=%v: ", t.Now()) + fmt.Sprintf(format, args...)
	o.violations = append(o.violations, msg)
	o.fr.Append(t.Now(), flight.KindViolation, "oracle", msg, int64(len(o.violations)))
}

// expected returns the shadow contents for a read of [off, off+size) with
// the FS's short-read-at-EOF semantics.
func expected(content []byte, off, size int64) []byte {
	if off >= int64(len(content)) {
		return nil
	}
	end := off + size
	if end > int64(len(content)) {
		end = int64(len(content))
	}
	return content[off:end]
}

// Create implements gluster.FS.
func (o *Oracle) Create(t *sim.Task, path string, k func(gluster.FD, error)) {
	o.child.Create(t, path, func(fd gluster.FD, err error) {
		if err == nil {
			o.fds[fd] = path
			o.shadow[path] = nil
			o.mutations++
		}
		k(fd, err)
	})
}

// Open implements gluster.FS.
func (o *Oracle) Open(t *sim.Task, path string, k func(gluster.FD, error)) {
	o.child.Open(t, path, func(fd gluster.FD, err error) {
		if err == nil {
			o.fds[fd] = path
			if _, tracked := o.shadow[path]; !tracked {
				o.violate(t, "open %q succeeded but the shadow has no such file (lost unlink?)", path)
			}
		} else if _, tracked := o.shadow[path]; tracked && err == gluster.ErrNotExist {
			o.violate(t, "open %q: file lost (shadow has %d bytes)", path, len(o.shadow[path]))
		}
		k(fd, err)
	})
}

// Close implements gluster.FS.
func (o *Oracle) Close(t *sim.Task, fd gluster.FD, k func(error)) {
	o.child.Close(t, fd, func(err error) {
		if err == nil {
			delete(o.fds, fd)
		}
		k(err)
	})
}

// Read implements gluster.FS: a successful read must match the shadow.
func (o *Oracle) Read(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	o.child.Read(t, fd, off, size, func(data blob.Blob, err error) {
		if err != nil {
			k(data, err)
			return
		}
		if path, tracked := o.fds[fd]; tracked {
			o.readChecks++
			want := expected(o.shadow[path], off, size)
			if got := data.Bytes(); !bytes.Equal(got, want) {
				o.violate(t, "stale read %q [%d,+%d): got %d bytes (sum %x), shadow %d bytes (sum %x)",
					path, off, size, len(got), blob.FromBytes(got).Checksum(),
					len(want), blob.FromBytes(want).Checksum())
			}
		}
		k(data, nil)
	})
}

// Write implements gluster.FS: an acknowledged write is spliced into the
// shadow (zero-filling any hole, as the storage xlator does).
func (o *Oracle) Write(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	o.child.Write(t, fd, off, data, func(n int64, err error) {
		if err != nil {
			k(n, err)
			return
		}
		if path, tracked := o.fds[fd]; tracked && n != 0 {
			o.mutations++
			content := o.shadow[path]
			if need := off + n; int64(len(content)) < need {
				grown := make([]byte, need)
				copy(grown, content)
				content = grown
			}
			copy(content[off:off+n], data.Slice(0, n).Bytes())
			o.shadow[path] = content
		}
		k(n, nil)
	})
}

// Stat implements gluster.FS: a successful stat of a tracked file must
// report the shadow's size.
func (o *Oracle) Stat(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	o.child.Stat(t, path, func(st *gluster.Stat, err error) {
		if err == nil && !st.IsDir {
			if content, tracked := o.shadow[path]; tracked {
				o.statChecks++
				if st.Size != int64(len(content)) {
					o.violate(t, "stale stat %q: size %d, shadow %d", path, st.Size, len(content))
				}
			}
		}
		k(st, err)
	})
}

// Unlink implements gluster.FS. A successful unlink also orphans any
// still-open descriptors of the path: POSIX keeps such a file readable
// and writable through those descriptors, but it is no longer part of
// the path-visible namespace the shadow models, so later writes through
// an orphaned descriptor must not resurrect the shadow entry (they would
// make the audit demand an open-by-path of an unlinked file).
func (o *Oracle) Unlink(t *sim.Task, path string, k func(error)) {
	o.child.Unlink(t, path, func(err error) {
		if err == nil {
			delete(o.shadow, path)
			for fd, fdPath := range o.fds {
				if fdPath == path {
					delete(o.fds, fd)
				}
			}
			o.mutations++
		}
		k(err)
	})
}

// Mkdir implements gluster.FS (directories are not shadowed).
func (o *Oracle) Mkdir(t *sim.Task, path string, k func(error)) { o.child.Mkdir(t, path, k) }

// Readdir implements gluster.FS (directories are not shadowed).
func (o *Oracle) Readdir(t *sim.Task, path string, k func([]string, error)) {
	o.child.Readdir(t, path, k)
}

// Truncate implements gluster.FS: an acknowledged truncate resizes the
// shadow, zero-extending growth.
func (o *Oracle) Truncate(t *sim.Task, path string, size int64, k func(error)) {
	o.child.Truncate(t, path, size, func(err error) {
		if err != nil {
			k(err)
			return
		}
		if content, tracked := o.shadow[path]; tracked {
			o.mutations++
			if size <= int64(len(content)) {
				o.shadow[path] = content[:size]
			} else {
				grown := make([]byte, size)
				copy(grown, content)
				o.shadow[path] = grown
			}
		}
		k(nil)
	})
}

// VerifyAll reads every shadowed file back through the oracle (open, full
// read, close) and returns the accumulated violations. Call it after the
// workload — and after the plan's faults have healed — for an end-of-run
// audit that catches corruption the workload's own reads never touched.
// Iteration is in sorted path order so the audit's simulated traffic is
// deterministic.
func (o *Oracle) VerifyAll(t *sim.Task, k func([]string)) {
	paths := make([]string, 0, len(o.shadow))
	for path := range o.shadow {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var step func(i int)
	step = func(i int) {
		if i == len(paths) {
			k(o.violations)
			return
		}
		path := paths[i]
		o.Open(t, path, func(fd gluster.FD, err error) {
			if err != nil {
				// Open already recorded the violation if the file is lost;
				// other errors (a still-failed brick) mean the audit cannot
				// run, which is itself worth flagging.
				if err != gluster.ErrNotExist {
					o.violate(t, "audit open %q: %v", path, err)
				}
				step(i + 1)
				return
			}
			o.Read(t, fd, 0, int64(len(o.shadow[path])), func(_ blob.Blob, err error) {
				if err != nil {
					o.violate(t, "audit read %q: %v", path, err)
				}
				o.Close(t, fd, func(error) { step(i + 1) })
			})
		})
	}
	step(0)
}
