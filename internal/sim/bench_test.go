package sim

import "testing"

// BenchmarkDispatch measures the bare event loop: one task sleeping
// repeatedly, so every iteration is a schedule + heap pop + closure
// invocation.
func BenchmarkDispatch(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	env.StartTask("sleeper", func(t *Task) {
		var step func(i int)
		step = func(i int) {
			if i == b.N {
				t.End()
				return
			}
			t.Sleep(1, func() { step(i + 1) })
		}
		step(0)
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkDeferredEvent measures the deferred-function fast path plus the
// deadline-guarded wait built on it: each iteration runs one Defer and one
// WaitFn whose timeout fires first and withdraws it, the shape a pooled
// fabric call frame pays per deadline-carrying RPC.
func BenchmarkDeferredEvent(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	env.StartTask("waiter", func(t *Task) {
		var step func(i int)
		step = func(i int) {
			if i == b.N {
				t.End()
				return
			}
			env.Defer(1, func() {})
			never := NewEvent(env)
			id := never.WaitFn(func() { b.Fatal("untriggered event completed") })
			t.Sleep(2, func() {
				never.Withdraw(id)
				step(i + 1)
			})
		}
		step(0)
	})
	b.ResetTimer()
	env.Run()
}
