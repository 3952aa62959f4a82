package sim

import (
	"testing"
	"time"
)

// TestDeferRunsAtScheduledTime verifies a deferred function fires at its
// instant, in scheduler context, and is counted like any other event.
func TestDeferRunsAtScheduledTime(t *testing.T) {
	env := NewEnv()
	var at Time
	env.Defer(5*time.Microsecond, func() { at = env.Now() })
	env.Run()
	if want := Time(5 * time.Microsecond); at != want {
		t.Errorf("deferred fn ran at %v, want %v", at, want)
	}
	if env.EventsProcessed != 1 {
		t.Errorf("EventsProcessed = %d, want 1", env.EventsProcessed)
	}
}

// TestDeferOrderingWithProcesses verifies deferred functions interleave
// with task continuations in strict (at, seq) order.
func TestDeferOrderingWithProcesses(t *testing.T) {
	env := NewEnv()
	var order []string
	env.StartTask("p", func(tk *Task) {
		tk.Sleep(2, func() {
			order = append(order, "proc@2")
			tk.End()
		})
	})
	env.Defer(1, func() { order = append(order, "defer@1") })
	env.Defer(3, func() { order = append(order, "defer@3") })
	env.Run()
	want := []string{"defer@1", "proc@2", "defer@3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, order[i], want[i])
		}
	}
}

// TestDeferChained verifies a deferred function may itself defer more work.
func TestDeferChained(t *testing.T) {
	env := NewEnv()
	var depth int
	var chain func()
	chain = func() {
		depth++
		if depth < 3 {
			env.Defer(1, chain)
		}
	}
	env.Defer(1, chain)
	end := env.Run()
	if depth != 3 {
		t.Errorf("chained defers ran %d times, want 3", depth)
	}
	if end != 3 {
		t.Errorf("run ended at %v, want 3ns", end)
	}
}

// TestHeapOrderLargeFanIn pushes many same-instant events through the
// 4-ary heap and checks strict creation-order dispatch.
func TestHeapOrderLargeFanIn(t *testing.T) {
	env := NewEnv()
	const n = 1000
	var got []int
	for i := 0; i < n; i++ {
		i := i
		env.Defer(Duration(i%7), func() { got = append(got, i) })
	}
	env.Run()
	if len(got) != n {
		t.Fatalf("dispatched %d events, want %d", len(got), n)
	}
	// Within each instant, creation order; across instants, time order.
	seen := make(map[int]int) // delay -> last index seen
	for _, i := range got {
		d := i % 7
		if last, ok := seen[d]; ok && i < last {
			t.Fatalf("event %d dispatched after %d at the same instant", i, last)
		}
		seen[d] = i
	}
}
