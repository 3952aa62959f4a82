package sim

import (
	"strings"
	"testing"
	"time"
)

// TestAwaitInlineCompletion: an operation that completes inline returns
// without dispatching an event or consuming a sequence number.
func TestAwaitInlineCompletion(t *testing.T) {
	env := NewEnv()
	s := env.ContextTask("script")
	seq, events := env.seq, env.EventsProcessed
	ran := false
	Await(s, func(tk *Task, done func()) {
		if tk != s {
			t.Error("op did not run on the awaiting task")
		}
		done()
		ran = true
	})
	if !ran {
		t.Fatal("op did not run inline")
	}
	if env.seq != seq {
		t.Errorf("inline Await consumed %d sequence numbers", env.seq-seq)
	}
	if env.EventsProcessed != events {
		t.Errorf("inline Await dispatched %d events", env.EventsProcessed-events)
	}
}

// TestAwaitDeferredCompletion: a completion that arrives later returns at
// the continuation's instant, and the return itself is not an event — the
// script dispatches exactly the operation's own sleep, the same events a
// task issuing the sleep would add beyond its start.
func TestAwaitDeferredCompletion(t *testing.T) {
	const d = 3 * time.Millisecond
	env := NewEnv()
	s := env.ContextTask("script")
	Await(s, func(tk *Task, done func()) { tk.Sleep(d, done) })
	if s.Now() != Time(0).Add(d) {
		t.Errorf("returned at %v, want %v", s.Now(), d)
	}
	env.Run()
	if env.EventsProcessed != 1 {
		t.Errorf("EventsProcessed = %d, want 1 (the operation's sleep)", env.EventsProcessed)
	}

	// The same operation issued by a task dispatches its start plus the
	// same sleep.
	tenv := NewEnv()
	tenv.StartTask("task", func(tk *Task) { tk.Sleep(d, tk.End) })
	tenv.Run()
	if tenv.EventsProcessed != env.EventsProcessed+1 {
		t.Errorf("task dispatched %d events, Await %d plus the task's start", tenv.EventsProcessed, env.EventsProcessed)
	}
}

// TestAwaitSequential: a script can Await repeatedly, mixing inline and
// deferred completions.
func TestAwaitSequential(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	s := env.ContextTask("script")
	var at []Time
	for i := 0; i < 3; i++ {
		use(s, res, time.Millisecond)
		at = append(at, s.Now())
		sleep(s, time.Millisecond)
	}
	env.Run()
	want := []Time{Time(time.Millisecond), Time(3 * time.Millisecond), Time(5 * time.Millisecond)}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("Await %d returned at %v, want %v", i, at[i], want[i])
		}
	}
}

// TestAwaitStopsAfterCompletingDispatch: Await returns right after the
// dispatch that called done; a same-instant event queued behind it is
// still pending and runs only when the script lets the kernel go on.
func TestAwaitStopsAfterCompletingDispatch(t *testing.T) {
	env := NewEnv()
	s := env.ContextTask("script")
	behind := false
	Await(s, func(tk *Task, done func()) {
		tk.Sleep(time.Microsecond, done)
		env.Defer(time.Microsecond, func() { behind = true })
	})
	if behind {
		t.Error("Await dispatched the event queued behind the completing one")
	}
	if s.Now() != Time(time.Microsecond) || env.EventsProcessed != 1 {
		t.Errorf("returned at %v after %d events, want 1µs after 1", s.Now(), env.EventsProcessed)
	}
	env.Run()
	if !behind {
		t.Error("the same-instant event never ran")
	}
}

// TestAwaitPanicsInSchedulerContext: Await from a continuation or from a
// Defer callback has no script to block and panics.
func TestAwaitPanicsInSchedulerContext(t *testing.T) {
	for _, c := range []struct {
		name string
		arm  func(env *Env, awaitNow func())
	}{
		{"continuation", func(env *Env, awaitNow func()) {
			env.StartTask("task", func(tk *Task) { tk.Sleep(0, awaitNow) })
		}},
		{"defer", func(env *Env, awaitNow func()) { env.Defer(0, awaitNow) }},
	} {
		arm := c.arm
		t.Run(c.name, func(t *testing.T) {
			env := NewEnv()
			s := env.ContextTask("script")
			arm(env, func() { Await(s, func(_ *Task, done func()) { done() }) })
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "scheduler context") {
					t.Errorf("panic = %v, want a scheduler-context diagnostic", r)
				}
			}()
			env.Run()
		})
	}
}
