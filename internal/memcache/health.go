package memcache

import (
	"time"

	"imca/internal/flight"
	"imca/internal/sim"
)

// DefaultProbeBackoff is the initial readmission-probe delay for an
// ejected server when SetEjection is given a non-positive backoff.
const DefaultProbeBackoff = 5 * time.Millisecond

// maxBackoffMult caps the exponential probe backoff at this multiple of
// the initial delay, so a long outage still gets probed at a steady rate.
const maxBackoffMult = 64

// serverHealth is one server's standing with this client. Ejection is a
// per-client view (as in real memcache clients): each translator's client
// discovers and forgives failures on its own.
type serverHealth struct {
	// fails counts consecutive failed requests (Down reply, deadline
	// expiry, or unreachable link); any success resets it.
	fails int
	// ejected marks the server out of rotation: requests to it fast-fail
	// without touching the NIC until a probe readmits it.
	ejected bool
	// probeAt is the virtual instant the next readmission probe may go
	// out; backoff is the current probe interval, doubling per failed
	// probe up to maxBackoffMult times the initial delay.
	probeAt sim.Time
	backoff sim.Duration

	// Latency suspicion (SetSuspicion): gray failures answer correctly
	// but slowly, so consecutive-failure ejection never triggers. The
	// EWMA of successful single-key get service times detects them.
	// suspected soft-ejects reads (writes still flow: a slow cache must
	// keep receiving deletes or it serves stale data); sProbeAt/sBackoff
	// pace the read probes that test whether the gray phase passed.
	suspected bool
	ewma      float64 // smoothed service time, virtual nanoseconds
	samples   int
	sProbeAt  sim.Time
	sBackoff  sim.Duration
}

// suspectAlpha is the EWMA smoothing factor (1/8, the TCP RTT estimator's
// gain); suspectMinSamples is how many successes must be seen before the
// EWMA is trusted enough to suspect anyone.
const (
	suspectAlpha      = 0.125
	suspectMinSamples = 8
)

// SetEjection enables client-side server health tracking: after k
// consecutive failures (Down replies, deadline expiries, unreachable
// links) a server is ejected and requests to it fail fast — no request
// serializes onto the NIC — until a probe readmits it. While ejected, one
// real request is let through each time the backoff expires; a success
// readmits the server immediately, a failure doubles the backoff (capped).
// k <= 0 disables tracking (the default): every request goes to the wire
// exactly as before, preserving the paper's no-failover client.
func (c *SimClient) SetEjection(k int, backoff sim.Duration) {
	if k <= 0 {
		c.ejectAfter = 0
		c.health = nil
		return
	}
	if backoff <= 0 {
		backoff = DefaultProbeBackoff
	}
	c.ejectAfter = k
	c.probeBackoff = backoff
	c.health = make([]serverHealth, len(c.servers))
}

// SetSuspicion enables latency-based gray-failure detection: when the
// EWMA of a server's successful single-key get service times crosses
// threshold, the server is suspected and reads to it fast-fail (failing
// over to the replica when one is configured) until a probe — one real
// read per backoff window, doubling up to the same ×64 cap as ejection
// probes — comes back at healthy speed. Writes are never blocked by
// suspicion: a slow-but-alive cache must keep seeing sets and deletes or
// it would serve stale data once readmitted. threshold <= 0 disables
// (the default); backoff <= 0 uses DefaultProbeBackoff.
func (c *SimClient) SetSuspicion(threshold, backoff sim.Duration) {
	if threshold <= 0 {
		c.suspectAfter = 0
		return
	}
	if backoff <= 0 {
		backoff = DefaultProbeBackoff
	}
	c.suspectAfter = threshold
	c.suspectBackoff = backoff
	if c.health == nil {
		c.health = make([]serverHealth, len(c.servers))
	}
}

// Ejected reports whether server i is currently out of rotation.
func (c *SimClient) Ejected(i int) bool {
	return c.ejectAfter > 0 && c.health[i].ejected
}

// Suspected reports whether server i is currently under latency
// suspicion.
func (c *SimClient) Suspected(i int) bool {
	return c.suspectAfter > 0 && c.health[i].suspected
}

// admit decides whether a request to server i may go to the wire: yes for
// a healthy server, yes for an ejected one whose probe is due (counted as
// a probe), no otherwise (counted as a fast-fail; the caller reads it as
// an instant miss).
func (c *SimClient) admit(a *sim.Task, i int) bool {
	if c.ejectAfter == 0 {
		return true
	}
	h := &c.health[i]
	if !h.ejected {
		return true
	}
	if a.Now() >= h.probeAt {
		c.probes++
		c.fr.Append(a.Now(), flight.KindProbe, c.node.Name(), c.servers[i].node.Name(), int64(h.backoff))
		return true
	}
	c.fastFails++
	return false
}

// admitRead decides whether a read to server i may go to the wire: the
// hard-ejection gate first, then latency suspicion. A suspected server
// fast-fails reads until its probe is due; the probe read's own service
// time decides whether the suspicion clears (see observeLatency).
func (c *SimClient) admitRead(a *sim.Task, i int) bool {
	if !c.admit(a, i) {
		return false
	}
	if c.suspectAfter == 0 {
		return true
	}
	h := &c.health[i]
	if !h.suspected {
		return true
	}
	if a.Now() >= h.sProbeAt {
		c.probes++
		c.fr.Append(a.Now(), flight.KindProbe, c.node.Name(), c.servers[i].node.Name(), int64(h.sBackoff))
		return true
	}
	c.fastFails++
	return false
}

// readRoutable mirrors admitRead without side effects: would a read to
// server i currently reach the wire? Scatter-time replica routing
// (GetMulti) uses it so routing decisions never consume probe slots or
// count fast-fails for keys that end up on the other copy.
func (c *SimClient) readRoutable(a *sim.Task, i int) bool {
	if c.ejectAfter > 0 {
		if h := &c.health[i]; h.ejected && a.Now() < h.probeAt {
			return false
		}
	}
	if c.suspectAfter > 0 {
		if h := &c.health[i]; h.suspected && a.Now() < h.sProbeAt {
			return false
		}
	}
	return true
}

// observeLatency feeds one successful single-key get's service time into
// server i's suspicion EWMA. Batched gets are excluded: their service
// time scales with the batch, which would poison a per-op estimator.
func (c *SimClient) observeLatency(a *sim.Task, i int, elapsed sim.Duration) {
	if c.suspectAfter == 0 {
		return
	}
	h := &c.health[i]
	s := float64(elapsed)
	if h.samples == 0 {
		h.ewma = s
	} else {
		h.ewma += suspectAlpha * (s - h.ewma)
	}
	h.samples++
	if h.suspected {
		if elapsed <= c.suspectAfter {
			// The probe came back at healthy speed: clear the suspicion
			// and restart the estimator from the healthy sample, so the
			// gray-phase residue cannot immediately re-suspect.
			h.suspected = false
			h.sBackoff = 0
			h.ewma = s
			h.samples = 1
			c.suspectClears++
			c.fr.Append(a.Now(), flight.KindSuspectClear, c.node.Name(), c.servers[i].node.Name(), int64(elapsed))
			return
		}
		// Still slow: wait longer before the next probe.
		h.sBackoff *= 2
		if max := maxBackoffMult * c.suspectBackoff; h.sBackoff > max {
			h.sBackoff = max
		}
		h.sProbeAt = a.Now().Add(h.sBackoff)
		return
	}
	if h.samples >= suspectMinSamples && sim.Duration(h.ewma) > c.suspectAfter {
		h.suspected = true
		h.sBackoff = c.suspectBackoff
		h.sProbeAt = a.Now().Add(h.sBackoff)
		c.suspects++
		c.fr.Append(a.Now(), flight.KindSuspect, c.node.Name(), c.servers[i].node.Name(), int64(h.ewma))
	}
}

// observe records the outcome of a wire request to server i, ejecting,
// backing off, or readmitting as the state machine dictates.
func (c *SimClient) observe(a *sim.Task, i int, ok bool) {
	if c.ejectAfter == 0 {
		return
	}
	h := &c.health[i]
	if ok {
		if h.ejected {
			c.readmits++
			c.fr.Append(a.Now(), flight.KindReadmit, c.node.Name(), c.servers[i].node.Name(), int64(h.fails))
		}
		// Clear only the ejection fields: latency suspicion has its own
		// lifecycle (observeLatency) and must survive a fast success.
		h.fails, h.ejected, h.probeAt, h.backoff = 0, false, 0, 0
		return
	}
	h.fails++
	if h.ejected {
		// Failed probe: wait longer before the next one.
		h.backoff *= 2
		if max := maxBackoffMult * c.probeBackoff; h.backoff > max {
			h.backoff = max
		}
		h.probeAt = a.Now().Add(h.backoff)
		return
	}
	if h.fails >= c.ejectAfter {
		h.ejected = true
		h.backoff = c.probeBackoff
		h.probeAt = a.Now().Add(h.backoff)
		c.ejects++
		c.fr.Append(a.Now(), flight.KindEject, c.node.Name(), c.servers[i].node.Name(), int64(h.fails))
	}
}

// Ejects returns how many times this client has ejected a server.
func (c *SimClient) Ejects() uint64 { return c.ejects }

// Probes returns how many readmission probes this client has sent.
func (c *SimClient) Probes() uint64 { return c.probes }

// Readmits returns how many times a probe readmitted a server.
func (c *SimClient) Readmits() uint64 { return c.readmits }

// FastFails returns how many requests were answered instantly from the
// ejection state instead of going to the wire.
func (c *SimClient) FastFails() uint64 { return c.fastFails }

// Unreachables returns how many requests failed because the link to the
// server was cut.
func (c *SimClient) Unreachables() uint64 { return c.unreachables }

// Failovers returns how many reads were retried against (or routed to)
// the replica copy.
func (c *SimClient) Failovers() uint64 { return c.failovers }

// Suspects returns how many times this client has put a server under
// latency suspicion.
func (c *SimClient) Suspects() uint64 { return c.suspects }

// SuspectClears returns how many times a probe cleared a suspicion.
func (c *SimClient) SuspectClears() uint64 { return c.suspectClears }
