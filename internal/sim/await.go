package sim

// Await runs op on p's context task — a Task that shares p's context slot,
// so optrace spans op opens nest under p's current span — and blocks p
// until op calls done. It is how sequential scripts (shells, examples,
// tests, scripted experiment phases) drive the continuation-only stack.
//
// Await is free in virtual time: when op completes inline, p never parks
// and no sequence number is consumed; when it completes later, done
// resumes p inline from the continuation that called it, so the wake-up
// adds no event either. p observes exactly the instant and the event
// stream a task issuing op would.
func Await(p *Proc, op func(t *Task, done func())) {
	if p.task == nil {
		p.task = p.env.ContextTask(p.name)
	}
	t := p.task
	t.ctx = p.ctx
	completed, parked := false, false
	op(t, func() {
		if completed {
			panic("sim: Await continuation ran twice")
		}
		completed = true
		if parked {
			if p.env.running != nil {
				panic("sim: Await continuation ran in process context")
			}
			p.env.wake(p)
		}
	})
	if !completed {
		parked = true
		p.park()
	}
	p.ctx = t.ctx
}
