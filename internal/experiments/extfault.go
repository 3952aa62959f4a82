package experiments

import (
	"fmt"
	"strings"
	"time"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/fault"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/metrics"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// ExtFault measures graceful degradation through a cache-node crash
// (§4.4): one client re-reads a warmed dataset while the node carrying
// mcd0 crashes mid-run and reboots later — injected as a simultaneous
// client↔mcd0 link cut (the node stops answering, so lookups hang until
// the connect timeout) plus an MCD crash (the daemon restarts empty), both
// healed at the recovery instant. The same timeline runs twice: with the
// paper's plain client, which keeps paying the connect timeout on every
// lookup for the whole outage, and with client-side failover
// (cluster.Options.EjectAfter), which ejects the dead daemon after a few
// failures and fast-fails to the server path instead. The table shows
// per-interval read latency and bank hit rate for both clients; the §4.4
// invariant itself (no lost write, no stale read) is checked continuously
// by the fault package's oracle tests, so this experiment focuses on the
// performance envelope.
func ExtFault(o Options) *Result {
	const (
		recSize   = int64(2048)
		fileSize  = int64(128 << 10)
		interval  = 5 * time.Millisecond
		crashAt   = 30 * time.Millisecond
		recoverAt = 80 * time.Millisecond
		window    = 120 * time.Millisecond
		ejectK    = 3
	)

	type point struct {
		times    []sim.Duration // sample instants, relative to measurement start
		latUs    []float64      // per-interval mean read latency (µs)
		hitRate  []float64      // per-interval bank hit rate
		bank     memcache.Stats
		reads    uint64
		armed    uint64
		fired    uint64
		dump     string
		timeline Timeline
		flight   string
		tracks   []telemetry.CounterTrack
	}

	runName := func(ejectAfter int) string {
		if ejectAfter > 0 {
			return "failover"
		}
		return "plain"
	}

	run := func(ejectAfter int) point {
		c := cluster.New(cluster.Options{
			Clients:          1,
			MCDs:             2,
			MCDMemBytes:      64 << 20,
			BlockSize:        recSize,
			ServerCacheBytes: scaled(6<<30, o.scale()),
			EjectAfter:       ejectAfter,
		})
		env := c.Env
		fs := gluster.Sync{FS: c.Mounts[0].FS}
		reg := telemetry.NewRegistry()
		c.Instrument(reg)
		var reads, busyNs uint64
		reg.Counter("reader.ops", func() uint64 { return reads })
		reg.Counter("reader.busy_ns", func() uint64 { return busyNs })

		// Produce the dataset and warm the bank (one full pass), untimed.
		warm := env.ContextTask("ext-fault-warm")
		fd, err := fs.Create(warm, "/fault/f0")
		if err != nil {
			panic(fmt.Sprintf("ext-fault: create: %v", err))
		}
		for off := int64(0); off < fileSize; off += recSize {
			if _, err := fs.Write(warm, fd, off, blob.Synthetic(1, off, recSize)); err != nil {
				panic(fmt.Sprintf("ext-fault: write: %v", err))
			}
		}
		for off := int64(0); off < fileSize; off += recSize {
			if _, err := fs.Read(warm, fd, off, recSize); err != nil {
				panic(fmt.Sprintf("ext-fault: warm read: %v", err))
			}
		}
		env.Run()

		// Measurement: arm the outage relative to now and read until the
		// window closes, sampling latency and hit rate each interval.
		start := env.Now()
		in := fault.NewInjector(c)
		in.Register(reg, "fault")
		var fr *flight.Recorder
		if o.Flight {
			fr = flight.New(4096)
			c.SetFlight(fr)
			in.SetFlight(fr)
		}
		plan := &fault.Plan{Name: "mcd0 node crash and reboot", Events: []fault.Event{
			{At: crashAt, Kind: fault.LinkCut, Target: "client0", Peer: "mcd0"},
			{At: crashAt, Kind: fault.MCDCrash, Target: "mcd0"},
			{At: recoverAt, Kind: fault.LinkHeal, Target: "client0", Peer: "mcd0"},
			{At: recoverAt, Kind: fault.MCDRecover, Target: "mcd0"},
		}}
		if err := in.Arm(plan); err != nil {
			panic(fmt.Sprintf("ext-fault: arm: %v", err))
		}
		smp := telemetry.NewSampler(env, reg, interval)
		reader := env.ContextTask("ext-fault-read")
		end := start.Add(window)
		off := int64(0)
		for reader.Now() < end {
			t0 := reader.Now()
			if _, err := fs.Read(reader, fd, off, recSize); err != nil {
				panic(fmt.Sprintf("ext-fault: read: %v", err))
			}
			busyNs += uint64(reader.Now().Sub(t0))
			reads++
			off += recSize
			if off >= fileSize {
				off = 0
			}
		}
		env.Run()
		smp.Stop()

		ops := delta(smp.Series("reader.ops"))
		busy := delta(smp.Series("reader.busy_ns"))
		hits := delta(smp.Series("bank.hits"))
		gets := delta(smp.Series("bank.gets"))
		pt := point{bank: c.BankStats(), reads: reads, armed: in.Armed(), fired: in.Fired()}
		for i, at := range smp.Times() {
			pt.times = append(pt.times, at.Sub(start))
			if ops[i] > 0 {
				pt.latUs = append(pt.latUs, busy[i]/ops[i]/1e3)
			} else {
				pt.latUs = append(pt.latUs, 0)
			}
			if gets[i] > 0 {
				pt.hitRate = append(pt.hitRate, hits[i]/gets[i])
			} else {
				pt.hitRate = append(pt.hitRate, 0)
			}
		}
		if o.Telemetry {
			var sb strings.Builder
			reg.Dump(&sb)
			pt.dump = sb.String()
		}
		if o.Hists {
			pt.timeline = timelineFrom(smp, start,
				"ext-fault "+runName(ejectAfter)+": client0.fuse.read_lat",
				"client0.fuse.read_lat")
		}
		if o.Flight {
			pt.flight = flightText(fr)
		}
		if o.TraceOps {
			pt.tracks = smp.CounterTracks("bank.hit_rate", "client0.fuse.read_lat")
		}
		return pt
	}

	pts := runAll(o, []func() point{
		func() point { return run(0) },
		func() point { return run(ejectK) },
	})
	plain, failover := pts[0], pts[1]

	rows := len(plain.times)
	if n := len(failover.times); n < rows {
		rows = n
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Ext: graceful degradation — mcd0 node crash at %v, reboot at %v (%s blocks, eject after %d failures)",
			crashAt, recoverAt, fmtSize(recSize), ejectK),
		"virtual time", "value",
		"latency µs (plain)", "latency µs (failover)", "bank hit rate (plain)", "bank hit rate (failover)")
	for i := 0; i < rows; i++ {
		tb.AddRow(plain.times[i].String(), plain.latUs[i], failover.latUs[i], plain.hitRate[i], failover.hitRate[i])
	}

	res := &Result{Name: "ext-fault", Table: tb}
	peak := func(p point) float64 {
		max := 0.0
		for _, v := range p.latUs {
			if v > max {
				max = v
			}
		}
		return max
	}
	pp, pf := peak(plain), peak(failover)
	res.Notes = append(res.Notes, note(
		"peak interval latency during the outage: plain %.0f µs vs failover %.0f µs (%.1f× improvement)",
		pp, pf, pp/pf))
	res.Notes = append(res.Notes, note(
		"failover client: %d ejects, %d fast-fails, %d probes, %d readmits; plain client: %d unreachable calls",
		failover.bank.Ejects, failover.bank.FastFails, failover.bank.Probes, failover.bank.Readmits,
		plain.bank.Unreachables))
	res.Notes = append(res.Notes, note(
		"reads completed in the %v window: plain %d, failover %d",
		window, plain.reads, failover.reads))
	if o.Telemetry {
		res.Telemetry = append(res.Telemetry,
			NamedDump{Title: "ext-fault plain client final counters", Text: plain.dump},
			NamedDump{Title: "ext-fault failover client final counters", Text: failover.dump})
	}
	if o.Hists {
		res.Timelines = append(res.Timelines, plain.timeline, failover.timeline)
	}
	if o.Flight {
		res.Flight = append(res.Flight,
			NamedDump{Title: "ext-fault plain client flight recorder", Text: plain.flight},
			NamedDump{Title: "ext-fault failover client flight recorder", Text: failover.flight})
	}
	if o.TraceOps {
		// Only the failover run's tracks: two runs share instrument names,
		// and one set of counter tracks per export keeps Perfetto readable.
		res.Tracks = append(res.Tracks, failover.tracks...)
	}
	return res
}
