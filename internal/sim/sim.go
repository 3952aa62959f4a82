// Package sim implements a deterministic discrete-event simulation kernel.
//
// Simulated activities are Tasks written in continuation-passing style:
// time is virtual, and a task advances the clock only through the
// kernel's primitives (Task.Sleep, Event, Resource, Barrier), each of
// which takes the rest of the computation as a callback. Sequential
// scripts run on the host and drive task-style operations through Await,
// which dispatches events until the awaited operation completes. The
// kernel dispatches one continuation at a time and orders simultaneous
// events by creation sequence, so a simulation is fully deterministic and
// race-free without locks.
//
// The typical shape of a simulation:
//
//	env := sim.NewEnv()
//	env.StartTask("client", func(t *sim.Task) {
//		t.Sleep(10*time.Microsecond, func() {
//			// ... interact with other tasks via Event/Resource/Barrier
//			t.End()
//		})
//	})
//	env.Run()
//
// # Dispatch cost
//
// Every event is a function call in scheduler context: a task's
// continuation or a deferred function (Env.Defer). The pending-event queue
// is a 4-ary min-heap of event values in a single backing array:
// scheduling allocates nothing (vacated slots are recycled in place,
// serving as the event free list), and the shallow wide heap keeps
// comparisons inside one cache line per level.
package sim

import (
	"fmt"
	"time"

	//imcalint:allow nogoroutine host-side dispatch total: one atomic add per dispatch loop, read only by harness telemetry
	"sync/atomic"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration re-exports time.Duration for virtual intervals; virtual and wall
// durations share units but never mix clocks.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the interval t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// event is a scheduled call of fn in scheduler context. Events are stored
// by value in the heap's backing array, so scheduling one allocates
// nothing.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). A wide
// shallow heap does fewer, cache-friendlier levels than a binary one for
// the queue sizes simulations reach, and holding values instead of
// pointers removes both the per-event allocation and the container/heap
// interface boxing the kernel used to pay on every schedule/dispatch.
type eventHeap []event

// before reports whether a sorts before b: earlier time first, creation
// order breaking ties (seq is unique, so the order is total).
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev, restoring the heap property by sifting up.
func (h *eventHeap) push(ev event) {
	a := append(*h, ev)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !before(&ev, &a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = ev
	*h = a
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the backing array (the kernel's event free list) does not pin
// dead closures.
func (h *eventHeap) pop() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = event{}
	a = a[:n]
	*h = a
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if before(&a[c], &a[best]) {
				best = c
			}
		}
		if !before(&a[best], &last) {
			break
		}
		a[i] = a[best]
		i = best
	}
	a[i] = last
	return top
}

// totalEvents accumulates dispatched events across every environment in
// the process, updated once per dispatch loop (RunUntil, Await). Harness
// telemetry reads it to report host-side throughput (events per wall
// second); the hot dispatch loop itself never touches it.
var totalEvents atomic.Uint64

// TotalEvents returns the number of events dispatched by all environments
// in this process since it started — the numerator of the harness's
// events-per-second gauge. It is safe to call from any goroutine.
func TotalEvents() uint64 { return totalEvents.Load() }

// Env is a simulation environment: a virtual clock plus the pending
// events that advance it.
type Env struct {
	now  Time
	seq  uint64
	heap eventHeap

	tasksLive int // tasks started and not yet ended
	nextTID   int

	// dispatching is set while the dispatch loop runs, that is in
	// scheduler context; Await refuses to run there.
	dispatching bool

	// EventsProcessed counts dispatched events — a cheap measure of how
	// much simulated activity a run performed, useful when comparing the
	// cost of scenarios or hunting runaway models.
	EventsProcessed uint64

	// Tick hook: an observer callback fired at fixed virtual intervals
	// (see SetTick). It lives outside the event heap so installing it
	// never perturbs event ordering, sequence numbers, or the clock.
	tickInterval Duration
	tickNext     Time
	tickFn       func(at Time)
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env { return &Env{} }

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// schedule enqueues fn to run at absolute time at.
func (e *Env) schedule(at Time, fn func()) {
	e.seq++
	e.heap.push(event{at: at, seq: e.seq, fn: fn})
}

// Defer schedules fn to run in scheduler context at the current time plus
// d. It is the way to express timeouts, sensors, and other bookkeeping
// that does not belong to a task of its own.
//
// fn runs between event dispatches. It may schedule further work (trigger
// events, call Defer, start tasks) but must not call Await: there is no
// script to block.
func (e *Env) Defer(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative defer delay")
	}
	if fn == nil {
		panic("sim: nil deferred function")
	}
	e.schedule(e.now.Add(d), fn)
}

// SetTick installs fn as the environment's tick observer: it is invoked
// with each boundary time now, now+interval, now+2·interval, … as the
// clock reaches or passes it. A nil fn removes the observer.
//
// The callback runs in scheduler context between event dispatches, so a
// read-only observer sees a consistent snapshot of simulation state as of
// the boundary instant (state only changes when events run, and none ran
// between the previous event and the boundary).
// Because the hook schedules nothing, installing it cannot change a
// simulation's behaviour — results are byte-identical with it on or off.
// The callback must not schedule anything (Defer, Trigger, Task.Sleep, …).
func (e *Env) SetTick(interval Duration, fn func(at Time)) {
	if fn == nil {
		e.tickFn = nil
		return
	}
	if interval <= 0 {
		panic("sim: non-positive tick interval")
	}
	e.tickInterval = interval
	e.tickNext = e.now.Add(interval)
	e.tickFn = fn
}

// fireTicks invokes the tick observer for every boundary at or before the
// current time. Boundaries coinciding with an event's timestamp fire before
// that event is dispatched.
func (e *Env) fireTicks() {
	for e.tickFn != nil && e.tickNext <= e.now {
		at := e.tickNext
		e.tickNext = at.Add(e.tickInterval)
		e.tickFn(at)
	}
}

// Run processes events until none remain. It returns the final virtual
// time. If tasks remain un-ended with no pending events, the simulation is
// deadlocked and Run panics with a diagnostic, since that always indicates
// a modelling bug.
func (e *Env) Run() Time {
	return e.RunUntil(maxTime)
}

// maxTime is the limit of a run that stops only when the queue drains.
const maxTime = Time(1<<62 - 1)

// RunUntil processes events with timestamps <= limit and returns the
// current virtual time afterwards. When an event is pending beyond limit,
// the clock advances to limit; a limit in the past dispatches nothing and
// leaves the clock where it is.
//
//imcalint:hotpath dispatch loop: fig5's ~0.26 allocs/event (BENCH_baseline.json) rests on dispatch staying allocation-free
func (e *Env) RunUntil(limit Time) Time {
	e.dispatch(limit, nil)
	if len(e.heap) == 0 && e.tasksLive > 0 {
		panic(fmt.Sprintf("sim: deadlock at %v: %d task(s) un-ended with no pending events", e.now, e.tasksLive))
	}
	return e.now
}

// dispatch runs events in (at, seq) order until the queue drains, the next
// event lies beyond limit, or, when stop is non-nil, a dispatch sets
// *stop.
func (e *Env) dispatch(limit Time, stop *bool) {
	start := e.EventsProcessed
	e.dispatching = true
	defer func() { //imcalint:allow allocfree one closure per dispatch call, amortized over every event it dispatches
		e.dispatching = false
		totalEvents.Add(e.EventsProcessed - start)
	}()
	for len(e.heap) > 0 {
		if e.heap[0].at > limit {
			if limit > e.now {
				e.now = limit
				e.fireTicks()
			}
			return
		}
		ev := e.heap.pop()
		e.now = ev.at
		if e.tickFn != nil {
			e.fireTicks()
		}
		e.EventsProcessed++
		ev.fn()
		if stop != nil && *stop {
			return
		}
	}
}
