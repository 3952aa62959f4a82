// Package disk models rotating storage: a single disk with seek and
// sequential-transfer costs, and RAID-0 arrays that stripe requests across
// member disks.
//
// Addresses are abstract byte offsets in a flat device space; callers (the
// file-system layers) map files onto that space. The model captures the two
// properties the reproduced experiments depend on: sequential streams run at
// the platter transfer rate, and interleaved streams from many clients
// degrade to seek-bound throughput.
package disk

import (
	"time"

	"imca/internal/sim"
)

// Params describes a disk's first-order performance model.
type Params struct {
	// SeekTime is the average positioning cost (seek + rotational delay)
	// paid when an access does not continue the previous one.
	SeekTime sim.Duration
	// TransferRate is the sustained media rate in bytes/second.
	TransferRate float64
}

// HighPoint2008 approximates one disk of the paper's 8-disk HighPoint RAID
// array (7200rpm SATA of the period).
var HighPoint2008 = Params{SeekTime: 8 * time.Millisecond, TransferRate: 70e6}

// Device is anything that can serve byte-addressed accesses in virtual time.
type Device interface {
	// Access performs a read or write of size bytes at addr and runs k
	// when the simulated transfer completes.
	Access(t *sim.Task, addr, size int64, write bool, k func())
}

// Disk is a single spindle. Concurrent requests queue FIFO at the arm.
type Disk struct {
	env     *sim.Env
	params  Params
	arm     *sim.Resource
	lastEnd int64
	// slow stretches every access by this factor when > 1 (a degrading
	// spindle; see SetSlowdown). Zero or one means healthy, and the cost
	// computation is untouched.
	slow float64

	// Stats
	Reads, Writes uint64
	Seeks         uint64
	BytesRead     int64
	BytesWritten  int64
}

// New returns a disk with the given parameters.
func New(env *sim.Env, params Params) *Disk {
	if params.TransferRate <= 0 {
		panic("disk: non-positive transfer rate")
	}
	return &Disk{env: env, params: params, arm: sim.NewResource(env, 1), lastEnd: -1}
}

// Access implements Device. The positioning cost is computed when the arm
// is granted: lastEnd reflects the request served before this one, not the
// one ahead in the queue when this one arrived.
func (d *Disk) Access(t *sim.Task, addr, size int64, write bool, k func()) {
	if size < 0 || addr < 0 {
		panic("disk: negative access")
	}
	d.arm.Acquire(t, 1, func() {
		cost := sim.Duration(0)
		if addr != d.lastEnd {
			cost += d.params.SeekTime
			d.Seeks++
		}
		cost += sim.Duration(float64(size) / d.params.TransferRate * 1e9)
		if d.slow > 1 {
			cost = sim.Duration(float64(cost) * d.slow)
		}
		d.lastEnd = addr + size
		t.Sleep(cost, func() {
			d.arm.Release(1)
			if write {
				d.Writes++
				d.BytesWritten += size
			} else {
				d.Reads++
				d.BytesRead += size
			}
			k()
		})
	})
}

// Utilization returns the fraction of virtual time the arm has been busy.
func (d *Disk) Utilization() float64 { return d.arm.Utilization() }

// SetSlowdown stretches every access by factor (a failing or rebuilding
// spindle serving at reduced speed). Factor 1 restores full health;
// factors below 1 are rejected — this models degradation, not upgrades.
func (d *Disk) SetSlowdown(factor float64) {
	if factor < 1 {
		panic("disk: slowdown factor below 1")
	}
	d.slow = factor
}

// Slowdown returns the current slowdown factor (1 when healthy).
func (d *Disk) Slowdown() float64 {
	if d.slow > 1 {
		return d.slow
	}
	return 1
}

// Array is a RAID-0 stripe set over identical member disks. A request is
// split at stripe boundaries and the chunks proceed on their member disks
// in parallel; the request completes when the slowest chunk does.
type Array struct {
	env        *sim.Env
	disks      []*Disk
	stripeSize int64
}

// NewArray builds a RAID-0 array of n disks with the given stripe size.
func NewArray(env *sim.Env, n int, stripeSize int64, params Params) *Array {
	if n <= 0 || stripeSize <= 0 {
		panic("disk: bad array geometry")
	}
	a := &Array{env: env, stripeSize: stripeSize}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, New(env, params))
	}
	return a
}

// Disks exposes the member disks (for stats).
func (a *Array) Disks() []*Disk { return a.disks }

// SetSlowdown stretches every member disk's accesses by factor (1
// restores full speed) — RAID-0 has no redundancy, so one slow member
// slows the whole array; the fault injector degrades all of them.
func (a *Array) SetSlowdown(factor float64) {
	for _, d := range a.disks {
		d.SetSlowdown(factor)
	}
}

// chunk is one stripe-aligned piece of a request mapped to a member disk.
type chunk struct {
	disk       *Disk
	addr, size int64
}

// mapRequest splits [addr, addr+size) into per-disk chunks.
func (a *Array) mapRequest(addr, size int64) []chunk {
	var out []chunk
	n := int64(len(a.disks))
	for size > 0 {
		stripe := addr / a.stripeSize
		within := addr % a.stripeSize
		take := a.stripeSize - within
		if take > size {
			take = size
		}
		member := stripe % n
		memberAddr := (stripe/n)*a.stripeSize + within
		out = append(out, chunk{disk: a.disks[member], addr: memberAddr, size: take})
		addr += take
		size -= take
	}
	return out
}

// Access implements Device, striping the request across members. Each
// member disk with chunks to serve gets its own task, which serves them in
// address order; the request completes once every member's task has, joined
// in member order.
func (a *Array) Access(t *sim.Task, addr, size int64, write bool, k func()) {
	if size <= 0 {
		if size < 0 {
			panic("disk: negative access")
		}
		k()
		return
	}
	chunks := a.mapRequest(addr, size)
	if len(chunks) == 1 {
		chunks[0].disk.Access(t, chunks[0].addr, chunks[0].size, write, k)
		return
	}
	// Coalesce contiguous chunks on the same member so a long sequential
	// request costs one seek per disk, not one per stripe.
	perDisk := make(map[*Disk][]chunk)
	for _, c := range chunks {
		l := perDisk[c.disk]
		if n := len(l); n > 0 && l[n-1].addr+l[n-1].size == c.addr {
			l[n-1].size += c.size
		} else {
			l = append(l, c)
		}
		perDisk[c.disk] = l
	}
	events := make([]*sim.Event, 0, len(perDisk))
	for _, d := range a.disks { // deterministic iteration order
		l, ok := perDisk[d]
		if !ok {
			continue
		}
		d := d
		ev := sim.NewEvent(a.env)
		a.env.StartTask("raid-chunk", func(q *sim.Task) {
			var serve func(i int)
			serve = func(i int) {
				if i == len(l) {
					ev.Trigger(nil)
					q.End()
					return
				}
				d.Access(q, l[i].addr, l[i].size, write, func() { serve(i + 1) })
			}
			serve(0)
		})
		events = append(events, ev)
	}
	var join func(i int)
	join = func(i int) {
		if i == len(events) {
			k()
			return
		}
		events[i].Wait(t, func(interface{}) { join(i + 1) })
	}
	join(0)
}
