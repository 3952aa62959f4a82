package disk

import (
	"sort"

	"imca/internal/sim"
)

// Policy selects the request scheduling discipline at a disk arm.
type Policy int

// Scheduling policies.
const (
	// FIFO serves requests in arrival order (the default; what a simple
	// block layer does).
	FIFO Policy = iota
	// Elevator serves the queued request with the smallest address at or
	// above the head position, wrapping to the lowest address when none
	// remain — C-SCAN, the classic seek-reduction discipline.
	Elevator
)

// SchedDisk is a single spindle with a pluggable request scheduler and a
// distance-dependent seek model (settle time plus a component linear in
// the stroke length), which is what makes scheduling worthwhile. It
// implements Device like Disk; Disk remains the simple FIFO fast path.
type SchedDisk struct {
	env    *sim.Env
	params Params
	policy Policy
	// FullStroke is the address distance costing a full Params.SeekTime;
	// shorter strokes cost proportionally less on top of the settle
	// floor. Default 1 GB.
	FullStroke int64

	busy    bool
	headPos int64
	queue   []*schedReq

	Reads, Writes uint64
	Seeks         uint64
	SeekDistance  int64
	BytesRead     int64
	BytesWritten  int64
}

type schedReq struct {
	addr, size int64
	write      bool
	done       *sim.Event
}

var _ Device = (*SchedDisk)(nil)

// NewSched returns a disk using the given scheduling policy.
func NewSched(env *sim.Env, params Params, policy Policy) *SchedDisk {
	if params.TransferRate <= 0 {
		panic("disk: non-positive transfer rate")
	}
	return &SchedDisk{env: env, params: params, policy: policy, FullStroke: 1 << 30, headPos: -1}
}

// Access implements Device.
func (d *SchedDisk) Access(t *sim.Task, addr, size int64, write bool, k func()) {
	if size < 0 || addr < 0 {
		panic("disk: negative access")
	}
	serve := func() {
		d.serve(t, addr, size, write, func() {
			d.dispatchNext()
			k()
		})
	}
	if d.busy {
		req := &schedReq{addr: addr, size: size, write: write, done: sim.NewEvent(d.env)}
		d.queue = append(d.queue, req)
		// Resumed by the completing request's dispatch.
		req.done.WaitT(t, func(interface{}) { serve() })
		return
	}
	d.busy = true
	serve()
}

// serve performs the positioning + transfer for one request, then runs k.
func (d *SchedDisk) serve(t *sim.Task, addr, size int64, write bool, k func()) {
	cost := sim.Duration(0)
	if addr != d.headPos {
		dist := addr - d.headPos
		if dist < 0 {
			dist = -dist
		}
		if d.headPos < 0 {
			dist = d.FullStroke / 2 // unknown head position: average stroke
		}
		if dist > d.FullStroke {
			dist = d.FullStroke
		}
		// 30% settle floor + 70% linear in stroke length.
		frac := float64(dist) / float64(d.FullStroke)
		cost += sim.Duration(float64(d.params.SeekTime) * (0.3 + 0.7*frac))
		d.Seeks++
		d.SeekDistance += dist
	}
	cost += sim.Duration(float64(size) / d.params.TransferRate * 1e9)
	d.headPos = addr + size
	t.Sleep(cost, func() {
		if write {
			d.Writes++
			d.BytesWritten += size
		} else {
			d.Reads++
			d.BytesRead += size
		}
		k()
	})
}

// dispatchNext picks the next queued request per the policy and wakes it;
// the woken request performs its own service.
func (d *SchedDisk) dispatchNext() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	idx := 0
	if d.policy == Elevator {
		idx = d.pickElevator()
	}
	req := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	req.done.Trigger(nil)
}

// pickElevator returns the queued request implementing C-SCAN order.
func (d *SchedDisk) pickElevator() int {
	best := -1
	wrap := -1
	for i, r := range d.queue {
		if r.addr >= d.headPos {
			if best < 0 || r.addr < d.queue[best].addr {
				best = i
			}
		}
		if wrap < 0 || r.addr < d.queue[wrap].addr {
			wrap = i
		}
	}
	if best >= 0 {
		return best
	}
	return wrap
}

// QueueSnapshot returns the queued addresses (diagnostics, tests).
func (d *SchedDisk) QueueSnapshot() []int64 {
	out := make([]int64, len(d.queue))
	for i, r := range d.queue {
		out[i] = r.addr
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
