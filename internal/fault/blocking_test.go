package fault

import (
	"imca/internal/gluster"
	"imca/internal/sim"
)

// blocking is the Sync facade over fs, for sequential test scripts.
func blocking(fs gluster.FS) gluster.Sync { return gluster.Sync{FS: fs} }

// verifyAll runs the oracle's end-of-run audit from a test script.
func verifyAll(p *sim.Task, o *Oracle) (violations []string) {
	sim.Await(p, func(t *sim.Task, done func()) {
		o.VerifyAll(t, func(v []string) { violations = v; done() })
	})
	return violations
}

// sleep blocks the script p for d of virtual time.
func sleep(p *sim.Task, d sim.Duration) {
	sim.Await(p, func(t *sim.Task, done func()) { t.Sleep(d, done) })
}
