package sim

import (
	"strings"
	"testing"
	"time"
)

// The helpers below block a host-side script on a continuation primitive
// through Await, the way scripts drive the kernel.

// sleep blocks the script s for d of virtual time.
func sleep(s *Task, d Duration) {
	Await(s, func(t *Task, done func()) { t.Sleep(d, done) })
}

// wait blocks the script s until ev triggers and returns the trigger value.
func wait(s *Task, ev *Event) interface{} {
	var v interface{}
	Await(s, func(t *Task, done func()) {
		ev.Wait(t, func(x interface{}) { v = x; done() })
	})
	return v
}

// use blocks the script s while it holds one unit of r for d.
func use(s *Task, r *Resource, d Duration) {
	Await(s, func(t *Task, done func()) { r.Use(t, d, done) })
}

// sleepN sleeps t n times for d each, calling step after each sleep, then
// ends the task.
func sleepN(t *Task, n int, d Duration, step func(i int)) {
	var loop func(i int)
	loop = func(i int) {
		if i == n {
			t.End()
			return
		}
		t.Sleep(d, func() {
			step(i)
			loop(i + 1)
		})
	}
	loop(0)
}

func TestClockAdvancesWithSleep(t *testing.T) {
	env := NewEnv()
	s := env.ContextTask("sleeper")
	sleep(s, 42*time.Microsecond)
	woke := s.Now()
	end := env.Run()
	if woke != Time(42*time.Microsecond) {
		t.Errorf("woke at %v, want 42µs", woke)
	}
	if end != woke {
		t.Errorf("Run returned %v, want %v", end, woke)
	}
}

func TestZeroSleepYields(t *testing.T) {
	env := NewEnv()
	var order []string
	env.StartTask("a", func(tk *Task) {
		order = append(order, "a1")
		tk.Sleep(0, func() {
			order = append(order, "a2")
			tk.End()
		})
	})
	env.StartTask("b", func(tk *Task) {
		order = append(order, "b1")
		tk.End()
	})
	env.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsRunInScheduleOrder(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.StartTask("p", func(tk *Task) {
			tk.Sleep(time.Millisecond, func() {
				order = append(order, i)
				tk.End()
			})
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		env := NewEnv()
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			env.StartTask("p", func(tk *Task) {
				tk.Sleep(Duration(i%7)*time.Microsecond, func() {
					order = append(order, i)
					tk.Sleep(Duration((i*31)%11)*time.Microsecond, func() {
						order = append(order, 100+i)
						tk.End()
					})
				})
			})
		}
		env.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	woke := 0
	for i := 0; i < 5; i++ {
		env.StartTask("waiter", func(tk *Task) {
			ev.Wait(tk, func(got interface{}) {
				if got != "go" {
					t.Errorf("Wait returned %v, want go", got)
				}
				woke++
				tk.End()
			})
		})
	}
	env.StartTask("trigger", func(tk *Task) {
		tk.Sleep(time.Millisecond, func() {
			ev.Trigger("go")
			tk.End()
		})
	})
	env.Run()
	if woke != 5 {
		t.Errorf("woke = %d, want 5", woke)
	}
	if !ev.Triggered() {
		t.Error("event not marked triggered")
	}
}

func TestEventWaitAfterTriggerReturnsImmediately(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	s := env.ContextTask("p")
	ev.Trigger(7)
	before := s.Now()
	if got := wait(s, ev); got != 7 {
		t.Errorf("got %v, want 7", got)
	}
	if s.Now() != before {
		t.Error("Wait on triggered event advanced time")
	}
	env.Run()
}

func TestEventSecondTriggerIgnored(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	ev.Trigger(1)
	ev.Trigger(2)
	if ev.Value() != 1 {
		t.Errorf("value = %v, want 1 (first trigger wins)", ev.Value())
	}
	env.Run()
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		env.StartTask("user", func(tk *Task) {
			res.Use(tk, 10*time.Microsecond, func() {
				finish = append(finish, tk.Now())
				tk.End()
			})
		})
	}
	env.Run()
	want := []Time{Time(10 * time.Microsecond), Time(20 * time.Microsecond), Time(30 * time.Microsecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityTwoRunsPairsConcurrently(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		env.StartTask("user", func(tk *Task) {
			res.Use(tk, 10*time.Microsecond, func() {
				finish = append(finish, tk.Now())
				tk.End()
			})
		})
	}
	env.Run()
	if finish[1] != Time(10*time.Microsecond) || finish[3] != Time(20*time.Microsecond) {
		t.Errorf("finish = %v, want pairs at 10µs and 20µs", finish)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.StartTask("user", func(tk *Task) {
			tk.Sleep(Duration(i)*time.Microsecond, func() { // arrive in index order
				res.Acquire(tk, 1, func() {
					order = append(order, i)
					tk.Sleep(100*time.Microsecond, func() {
						res.Release(1)
						tk.End()
					})
				})
			})
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v, want FIFO", order)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	s := env.ContextTask("u")
	use(s, res, 30*time.Microsecond)
	sleep(s, 70*time.Microsecond)
	env.Run()
	if u := res.Utilization(); u < 0.29 || u > 0.31 {
		t.Errorf("utilization = %f, want ~0.30", u)
	}
}

func TestBarrierReleasesTogetherAndIsReusable(t *testing.T) {
	env := NewEnv()
	bar := NewBarrier(env, 3)
	var released []Time
	for i := 0; i < 3; i++ {
		i := i
		env.StartTask("p", func(tk *Task) {
			tk.Sleep(Duration(i*10)*time.Microsecond, func() {
				bar.Wait(tk, func() {
					released = append(released, tk.Now())
					// Second generation.
					tk.Sleep(Duration((3-i)*10)*time.Microsecond, func() {
						bar.Wait(tk, func() {
							released = append(released, tk.Now())
							tk.End()
						})
					})
				})
			})
		})
	}
	env.Run()
	if len(released) != 6 {
		t.Fatalf("released %d times, want 6", len(released))
	}
	for i := 1; i < 3; i++ {
		if released[i] != released[0] {
			t.Errorf("first generation not simultaneous: %v", released[:3])
		}
	}
	for i := 4; i < 6; i++ {
		if released[i] != released[3] {
			t.Errorf("second generation not simultaneous: %v", released[3:])
		}
	}
}

func TestTaskDoneEvent(t *testing.T) {
	env := NewEnv()
	child := env.StartTask("child", func(tk *Task) { tk.Sleep(time.Millisecond, tk.End) })
	s := env.ContextTask("parent")
	wait(s, child.Done())
	if s.Now() != Time(time.Millisecond) {
		t.Errorf("parent saw done at %v, want 1ms", s.Now())
	}
	env.Run()
}

func TestRunUntilStopsEarly(t *testing.T) {
	env := NewEnv()
	steps := 0
	env.StartTask("ticker", func(tk *Task) {
		sleepN(tk, 100, time.Millisecond, func(int) { steps++ })
	})
	now := env.RunUntil(Time(5500 * time.Microsecond))
	if steps != 5 {
		t.Errorf("steps = %d, want 5", steps)
	}
	if now != Time(5500*time.Microsecond) {
		t.Errorf("now = %v, want 5.5ms", now)
	}
	// Resuming completes the remainder.
	env.Run()
	if steps != 100 {
		t.Errorf("after resume steps = %d, want 100", steps)
	}
}

// TestRunUntilPastLimitKeepsClock: a limit behind the clock dispatches
// nothing and leaves the clock where it is, even with events pending.
func TestRunUntilPastLimitKeepsClock(t *testing.T) {
	env := NewEnv()
	env.Defer(10, func() {})
	env.Defer(100, func() {})
	if now := env.RunUntil(50); now != 50 {
		t.Fatalf("RunUntil(50) = %v, want 50ns", now)
	}
	events := env.EventsProcessed
	if now := env.RunUntil(20); now != 50 {
		t.Errorf("RunUntil(20) after RunUntil(50) = %v, want the clock to stay at 50ns", now)
	}
	if env.EventsProcessed != events {
		t.Errorf("RunUntil into the past dispatched %d events", env.EventsProcessed-events)
	}
	if end := env.Run(); end != 100 {
		t.Errorf("Run ended at %v, want 100ns", end)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "sim: deadlock at 0s") || !strings.Contains(msg, "stuck") {
			t.Errorf("panic %q does not name the deadlock and the waiting script", r)
		}
	}()
	env := NewEnv()
	ev := NewEvent(env)
	wait(env.ContextTask("stuck"), ev) // nobody will ever trigger it
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative sleep")
		}
	}()
	env.ContextTask("bad").Sleep(-1, func() {})
}

func TestManyProcessesThroughput(t *testing.T) {
	env := NewEnv()
	const n = 1000
	done := 0
	for i := 0; i < n; i++ {
		env.StartTask("worker", func(tk *Task) {
			sleepN(tk, 10, time.Microsecond, func(j int) {
				if j == 9 {
					done++
				}
			})
		})
	}
	env.Run()
	if done != n {
		t.Errorf("done = %d, want %d", done, n)
	}
}

func TestEventsProcessedCounter(t *testing.T) {
	env := NewEnv()
	env.StartTask("p", func(tk *Task) {
		sleepN(tk, 5, time.Microsecond, func(int) {})
	})
	env.Run()
	// 1 start event + 5 sleep wake-ups.
	if env.EventsProcessed != 6 {
		t.Errorf("EventsProcessed = %d, want 6", env.EventsProcessed)
	}
}
