package sim

import (
	"testing"
	"time"
)

// TestAwaitInlineCompletion: an operation that completes inline returns
// without parking the process and consumes no sequence number.
func TestAwaitInlineCompletion(t *testing.T) {
	env := NewEnv()
	ran := false
	env.Process("script", func(p *Proc) {
		seq, events := env.seq, env.EventsProcessed
		Await(p, func(tk *Task, done func()) {
			if tk.Env() != env {
				t.Error("context task belongs to another environment")
			}
			done()
		})
		ran = true
		if env.seq != seq {
			t.Errorf("inline Await consumed %d sequence numbers", env.seq-seq)
		}
		if env.EventsProcessed != events {
			t.Errorf("inline Await dispatched %d events", env.EventsProcessed-events)
		}
		if env.parked != 0 {
			t.Errorf("%d processes parked during an inline Await", env.parked)
		}
	})
	env.Run()
	if !ran {
		t.Fatal("script did not resume")
	}
}

// TestAwaitDeferredCompletion: a completion that arrives later resumes the
// process at the continuation's instant, and the resumption itself is not
// an event — the run dispatches exactly the process start plus the
// operation's own sleep, the same count a task issuing the sleep would.
func TestAwaitDeferredCompletion(t *testing.T) {
	const d = 3 * time.Millisecond
	env := NewEnv()
	var resumed Time
	env.Process("script", func(p *Proc) {
		Await(p, func(tk *Task, done func()) { tk.Sleep(d, done) })
		resumed = p.Now()
	})
	env.Run()
	if resumed != Time(0).Add(d) {
		t.Errorf("resumed at %v, want %v", resumed, d)
	}
	if env.EventsProcessed != 2 {
		t.Errorf("EventsProcessed = %d, want 2 (start + the operation's sleep)", env.EventsProcessed)
	}

	// The same operation issued by a task dispatches the same events.
	tenv := NewEnv()
	tenv.StartTask("task", func(tk *Task) { tk.Sleep(d, tk.End) })
	tenv.Run()
	if tenv.EventsProcessed != env.EventsProcessed {
		t.Errorf("task engine dispatched %d events, Await %d", tenv.EventsProcessed, env.EventsProcessed)
	}
}

// TestAwaitSequential: a script can Await repeatedly, mixing inline and
// deferred completions, and ordinary Proc primitives still work between
// them.
func TestAwaitSequential(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var at []Time
	env.Process("script", func(p *Proc) {
		for i := 0; i < 3; i++ {
			Await(p, func(tk *Task, done func()) { res.Use(tk, time.Millisecond, done) })
			at = append(at, p.Now())
			p.Sleep(time.Millisecond)
		}
	})
	env.Run()
	want := []Time{Time(time.Millisecond), Time(3 * time.Millisecond), Time(5 * time.Millisecond)}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("Await %d resumed at %v, want %v", i, at[i], want[i])
		}
	}
}
