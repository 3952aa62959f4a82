package sim

import "fmt"

// Task is a simulated activity written in continuation-passing style: a
// state machine advanced by plain heap events. Its continuations are
// dispatched in scheduler context like any deferred function, so ten
// thousand concurrent clients cost ten thousand pending closures.
//
// A Task never blocks. Each kernel primitive (Event.Wait, Resource.Acquire
// and Use, Barrier.Wait, Task.Sleep) takes the rest of the computation as
// a callback and returns immediately. The continuation runs in scheduler
// context when the awaited instant or condition arrives, or inline when
// the primitive's fast path needs no wait (consuming no sequence number).
// A Task's body must call End exactly once, after its last continuation
// has run; a drained event heap with un-ended Tasks is a deadlock,
// diagnosed by Run.
type Task struct {
	env   *Env
	name  string
	tid   int
	done  *Event
	ended bool
	ctx   interface{}
}

// StartTask creates a task and schedules its body to run at the current
// virtual time. The body receives the task and typically arms its first
// continuation before returning.
func (e *Env) StartTask(name string, fn func(t *Task)) *Task {
	e.nextTID++
	t := &Task{env: e, name: name, tid: e.nextTID}
	e.tasksLive++
	e.schedule(e.now, func() { fn(t) })
	return t
}

// ContextTask returns a Task that serves purely as an execution context —
// an identity with a clock and a per-operation context slot — for
// continuation-style code whose lifecycle is tracked by its owner rather
// than by the kernel. Pooled RPC frames use one as the server-side actor
// for span nesting and kernel primitives, reusing it across every call the
// frame carries; a script uses one to drive operations through Await. A
// context task is never counted live (its owner tracks it), has no
// scheduled body, and must never call End.
func (e *Env) ContextTask(name string) *Task {
	e.nextTID++
	return &Task{env: e, name: name, tid: e.nextTID}
}

// Name returns the name given at creation.
func (t *Task) Name() string { return t.name }

// Env returns the environment the task belongs to.
func (t *Task) Env() *Env { return t.env }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.env.now }

// Done returns an event triggered when the task calls End. The event is
// created on first use: most tasks are never watched, and an unwatched
// task then costs one allocation less.
func (t *Task) Done() *Event {
	if t.done == nil {
		t.done = NewEvent(t.env)
		if t.ended {
			t.done.Trigger(nil)
		}
	}
	return t.done
}

// Ctx returns the task's context slot, or nil. The slot is opaque to the
// kernel; higher layers (e.g. optrace) use it to attach per-operation state
// without widening every call signature.
func (t *Task) Ctx() interface{} { return t.ctx }

// SetCtx stores v in the task's context slot. It may be called by the
// task's own code, or by its creator before the task first runs (e.g. to
// hand an RPC handler the caller's operation context); the kernel runs one
// continuation at a time, so the slot needs no locking.
func (t *Task) SetCtx(v interface{}) { t.ctx = v }

// String identifies the task for diagnostics.
func (t *Task) String() string { return fmt.Sprintf("task %d (%s)", t.tid, t.name) }

// Sleep schedules k to run after d of virtual time. It consumes one
// sequence number.
func (t *Task) Sleep(d Duration, k func()) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	t.env.schedule(t.env.now.Add(d), k)
}

// End marks the task finished and triggers its Done event. Every task must
// end exactly once; ending is what lets Run distinguish a completed
// simulation from one whose continuation chain was dropped.
func (t *Task) End() {
	if t.ended {
		panic(fmt.Sprintf("sim: %v ended twice", t))
	}
	t.ended = true
	t.env.tasksLive--
	if t.done != nil {
		t.done.Trigger(nil)
	}
}
