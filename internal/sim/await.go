package sim

import "fmt"

// Await runs op on t and returns once op calls done. It is how sequential
// scripts (shells, examples, tests, scripted experiment phases) drive the
// continuation-only stack from the host: t is typically an Env.ContextTask
// owned by the script, so optrace spans op opens nest under t's current
// span.
//
// op starts inline at the current instant. If it completes inline, Await
// returns without dispatching an event or consuming a sequence number.
// Otherwise Await dispatches events until the one whose dispatch called
// done returns. Continuations are tail calls, so that is the instant and
// the point in the event stream at which a task issuing op would continue.
//
// Await must be called from the host, not from scheduler context (a
// continuation, a Defer callback or a tick observer): there is no script
// there to block. It panics if the queue drains before op completes.
func Await(t *Task, op func(t *Task, done func())) {
	e := t.env
	if e.dispatching {
		panic(fmt.Sprintf("sim: Await on %v called from scheduler context", t))
	}
	completed := false
	op(t, func() {
		if completed {
			panic("sim: Await continuation ran twice")
		}
		completed = true
	})
	if completed {
		return
	}
	e.dispatch(maxTime, &completed)
	if !completed {
		panic(fmt.Sprintf("sim: deadlock at %v: %v awaits an operation that cannot complete, no events pending", e.now, t))
	}
}
