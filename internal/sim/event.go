package sim

// Event is a one-shot notification in virtual time. Tasks wait on it with
// a continuation; once triggered, all current and future waiters proceed
// and receive the trigger value.
type Event struct {
	env         *Env
	triggered   bool
	triggeredAt Time // instant Trigger ran; meaningful only when triggered
	value       interface{}
	waiters     []eventWaiter
	nextWID     uint64
}

// eventWaiter is one pending continuation. Exactly one of fn and fn0 is
// set. id identifies a WaitFn continuation for withdrawal (closures are
// not comparable, so the token stands in for their identity). fn0 is the
// niladic variant used by pooled callers (see WaitFn): because it takes no
// value, Trigger can schedule it directly instead of wrapping it in a
// fresh closure.
type eventWaiter struct {
	fn  func(v interface{})
	fn0 func()
	id  uint64
}

// NewEvent returns an untriggered event.
func NewEvent(env *Env) *Event {
	return &Event{env: env}
}

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// TriggeredAt returns the instant Trigger ran; meaningful only once
// Triggered reports true. Deadline machinery (pooled RPC frames) needs it
// for the tie rule: a trigger landing exactly on the deadline instant
// loses to the timeout.
func (ev *Event) TriggeredAt() Time { return ev.triggeredAt }

// Value returns the value passed to Trigger, or nil before triggering.
func (ev *Event) Value() interface{} { return ev.value }

// Trigger fires the event, waking all waiters at the current instant.
// Triggering an already-triggered event is a no-op (the first value wins).
// It may be called from a script or from scheduler context. Each waiter
// costs one scheduled event.
func (ev *Event) Trigger(v interface{}) {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ev.triggeredAt = ev.env.now
	ev.value = v
	for i := range ev.waiters {
		w := &ev.waiters[i]
		if w.fn0 != nil {
			// Niladic continuations dispatch as-is: the owner reads
			// Value() itself, so no per-trigger closure is needed.
			ev.env.schedule(ev.env.now, w.fn0)
		} else {
			fn := w.fn
			ev.env.schedule(ev.env.now, func() { fn(ev.value) })
		}
		*w = eventWaiter{}
	}
	// Keep the backing array: pooled events (see Reset) re-arm waiters
	// every reuse, and the cleared entries above drop all references.
	ev.waiters = ev.waiters[:0]
}

// Wait arranges for k to receive the trigger value: immediately (inline,
// consuming no sequence number) if the event has fired, otherwise when
// Trigger runs.
func (ev *Event) Wait(t *Task, k func(v interface{})) {
	if ev.triggered {
		k(ev.value)
		return
	}
	ev.waiters = append(ev.waiters, eventWaiter{fn: k})
}

// WaitFn arranges for k to run when the event triggers. It is the pooled
// caller's Wait: k takes no value (the owner reads Value itself), so the
// registration and the eventual dispatch allocate nothing — k is typically
// a method value bound once on a recycled frame. If the event has already
// triggered, k runs inline, consuming no sequence number, exactly like
// Wait's fast path; otherwise Trigger schedules k directly (one event, as
// for any waiter). The returned id withdraws the registration via Withdraw
// and is 0 when k already ran inline.
func (ev *Event) WaitFn(k func()) uint64 {
	if ev.triggered {
		k()
		return 0
	}
	ev.nextWID++
	ev.waiters = append(ev.waiters, eventWaiter{id: ev.nextWID, fn0: k})
	return ev.nextWID
}

// Withdraw removes a pending continuation registered by WaitFn before the
// event triggers, reporting whether it was found. After Trigger has run
// (or for id 0) there is nothing to withdraw. It is how a pooled frame's
// deadline path abandons its completion continuation when the timeout
// fires first.
func (ev *Event) Withdraw(id uint64) bool {
	if id == 0 {
		return false
	}
	for i := range ev.waiters {
		if ev.waiters[i].id == id {
			ev.waiters = append(ev.waiters[:i], ev.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Reset returns a triggered (or idle) event to its untriggered state so an
// owning pool can reuse it. Resetting with waiters still registered would
// strand them, so it panics; owners reset only after every side of the
// exchange has finished with the event.
func (ev *Event) Reset() {
	if len(ev.waiters) != 0 {
		panic("sim: Reset of an event with pending waiters")
	}
	ev.triggered = false
	ev.triggeredAt = 0
	ev.value = nil
}
