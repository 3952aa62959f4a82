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

// ExtDegrade measures how R=2 replication changes the degradation envelope
// under three failure shapes the expanded fault vocabulary models: a clean
// MCD crash (daemon dies, restarts empty), a fabric partition (the client
// loses the link, calls hang until the connect timeout), and a gray node
// (the daemon answers correctly but Factor× slower, so error-counting
// ejection never fires and only latency-based suspicion catches it). One
// client re-reads a warmed dataset while mcd0 suffers each fault in turn;
// the same timeline runs with an unreplicated bank (the failed daemon's
// share of keys is simply gone or slow) and with Options.Replicas = 2
// (reads fail over to the successor copy, so the bank keeps answering).
// Both runs use the same ejection and suspicion settings — the comparison
// isolates replication, not detection. The table reports per-interval
// read p99, bank hit rate, and brick-daemon read load (the misses land on
// the brick, which is exactly the load IMCa exists to absorb).
func ExtDegrade(o Options) *Result {
	const (
		recSize  = int64(2048)
		fileSize = int64(128 << 10)
		interval = 5 * time.Millisecond
		// Three fault windows on one timeline, each healed before the next.
		crashAt    = 30 * time.Millisecond
		crashHeal  = 60 * time.Millisecond
		partAt     = 100 * time.Millisecond
		partHeal   = 130 * time.Millisecond
		grayAt     = 170 * time.Millisecond
		grayHeal   = 210 * time.Millisecond
		window     = 240 * time.Millisecond
		ejectK     = 3
		grayFactor = 20.0
		// Healthy single-key bank gets run ~100 µs end to end at this
		// block size (mostly wire time); a 20× service stretch pushes them
		// past 200 µs, so 150 µs separates the two cleanly.
		suspectAfter = 150 * time.Microsecond
	)

	type point struct {
		times     []sim.Duration
		p99Us     []float64 // per-interval fuse read p99 (µs)
		hitRate   []float64 // per-interval bank hit rate
		brickRate []float64 // per-interval brick-daemon reads
		bank      memcache.Stats
		reads     uint64
		dump      string
		timeline  Timeline
		flight    string
		tracks    []telemetry.CounterTrack
	}

	runName := func(replicas int) string {
		if replicas > 1 {
			return "replicated"
		}
		return "single-copy"
	}

	run := func(replicas int) point {
		c := cluster.New(cluster.Options{
			Clients:          1,
			MCDs:             2,
			MCDMemBytes:      64 << 20,
			BlockSize:        recSize,
			ServerCacheBytes: scaled(6<<30, o.scale()),
			EjectAfter:       ejectK,
			SuspectAfter:     suspectAfter,
			Replicas:         replicas,
		})
		env := c.Env
		fs := gluster.Sync{FS: c.Mounts[0].FS}
		reg := telemetry.NewRegistry()
		c.Instrument(reg)
		var reads uint64
		reg.Counter("reader.ops", func() uint64 { return reads })

		// Produce the dataset and warm the bank (one full pass), untimed.
		var fd gluster.FD
		env.Process("ext-degrade-warm", func(p *sim.Proc) {
			var err error
			fd, err = fs.Create(p, "/degrade/f0")
			if err != nil {
				panic(fmt.Sprintf("ext-degrade: create: %v", err))
			}
			for off := int64(0); off < fileSize; off += recSize {
				if _, err := fs.Write(p, fd, off, blob.Synthetic(1, off, recSize)); err != nil {
					panic(fmt.Sprintf("ext-degrade: write: %v", err))
				}
			}
			for off := int64(0); off < fileSize; off += recSize {
				if _, err := fs.Read(p, fd, off, recSize); err != nil {
					panic(fmt.Sprintf("ext-degrade: warm read: %v", err))
				}
			}
		})
		env.Run()

		start := env.Now()
		in := fault.NewInjector(c)
		in.Register(reg, "fault")
		var fr *flight.Recorder
		if o.Flight {
			fr = flight.New(4096)
			c.SetFlight(fr)
			in.SetFlight(fr)
		}
		plan := &fault.Plan{Name: "mcd0 crash, partition, gray", Events: []fault.Event{
			{At: crashAt, Kind: fault.MCDCrash, Target: "mcd0"},
			{At: crashHeal, Kind: fault.MCDRecover, Target: "mcd0"},
			{At: partAt, Kind: fault.Partition, Target: "client0", Peer: "mcd0"},
			{At: partHeal, Kind: fault.PartitionHeal, Target: "client0", Peer: "mcd0"},
			{At: grayAt, Kind: fault.GrayNode, Target: "mcd0", Factor: grayFactor},
			{At: grayHeal, Kind: fault.GrayNode, Target: "mcd0", Factor: 1},
		}}
		if err := in.Arm(plan); err != nil {
			panic(fmt.Sprintf("ext-degrade: arm: %v", err))
		}
		smp := telemetry.NewSampler(env, reg, interval)
		env.Process("ext-degrade-read", func(p *sim.Proc) {
			end := start.Add(window)
			off := int64(0)
			for p.Now() < end {
				if _, err := fs.Read(p, fd, off, recSize); err != nil {
					panic(fmt.Sprintf("ext-degrade: read: %v", err))
				}
				// The stat keeps single-key bank traffic flowing, which is
				// what feeds the latency-suspicion EWMA (an open/stat mix is
				// also what real clients issue).
				if _, err := fs.Stat(p, "/degrade/f0"); err != nil {
					panic(fmt.Sprintf("ext-degrade: stat: %v", err))
				}
				reads++
				off += recSize
				if off >= fileSize {
					off = 0
				}
			}
		})
		env.Run()
		smp.Stop()

		hits := delta(smp.Series("bank.hits"))
		gets := delta(smp.Series("bank.gets"))
		brick := delta(smp.Series("brick0.server.ops.read"))
		p99 := smp.QuantileSeries("client0.fuse.read_lat", 0.99)
		pt := point{bank: c.BankStats(), reads: reads}
		for i, at := range smp.Times() {
			pt.times = append(pt.times, at.Sub(start))
			if p99 != nil {
				pt.p99Us = append(pt.p99Us, p99[i])
			} else {
				pt.p99Us = append(pt.p99Us, 0)
			}
			if gets[i] > 0 {
				pt.hitRate = append(pt.hitRate, hits[i]/gets[i])
			} else {
				pt.hitRate = append(pt.hitRate, 0)
			}
			pt.brickRate = append(pt.brickRate, brick[i])
		}
		if o.Telemetry {
			var sb strings.Builder
			reg.Dump(&sb)
			pt.dump = sb.String()
		}
		if o.Hists {
			pt.timeline = timelineFrom(smp, start,
				"ext-degrade "+runName(replicas)+": client0.fuse.read_lat",
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
		func() point { return run(2) },
	})
	single, repl := pts[0], pts[1]

	rows := len(single.times)
	if n := len(repl.times); n < rows {
		rows = n
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Ext: replicated bank through crash (%v), partition (%v), gray node ×%g (%v) on mcd0",
			crashAt, partAt, grayFactor, grayAt),
		"virtual time", "value",
		"read p99 µs (R=1)", "read p99 µs (R=2)",
		"bank hit rate (R=1)", "bank hit rate (R=2)",
		"brick reads (R=1)", "brick reads (R=2)")
	for i := 0; i < rows; i++ {
		tb.AddRow(single.times[i].String(),
			single.p99Us[i], repl.p99Us[i],
			single.hitRate[i], repl.hitRate[i],
			single.brickRate[i], repl.brickRate[i])
	}

	res := &Result{Name: "ext-degrade", Table: tb}
	// Mean hit rate inside the fault windows is the headline: the
	// replicated bank keeps serving its share while the single-copy bank
	// sheds every mcd0 key to the brick.
	faultWindow := func(p point) (rate float64) {
		var sum float64
		var n int
		for i, at := range p.times {
			in := (at > crashAt && at <= crashHeal) ||
				(at > partAt && at <= partHeal) ||
				(at > grayAt && at <= grayHeal)
			if in && i < len(p.hitRate) {
				sum += p.hitRate[i]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	brickTotal := func(p point) (total float64) {
		for _, v := range p.brickRate {
			total += v
		}
		return total
	}
	res.Notes = append(res.Notes, note(
		"bank hit rate inside the fault windows: single-copy %.3f vs replicated %.3f",
		faultWindow(single), faultWindow(repl)))
	res.Notes = append(res.Notes, note(
		"brick daemon absorbed %d reads single-copy vs %d replicated over the %v window",
		int64(brickTotal(single)), int64(brickTotal(repl)), window))
	res.Notes = append(res.Notes, note(
		"replicated client: %d failovers, %d suspects, %d suspect clears, %d ejects; single-copy client: %d ejects, %d suspects",
		repl.bank.Failovers, repl.bank.Suspects, repl.bank.SuspectClears, repl.bank.Ejects,
		single.bank.Ejects, single.bank.Suspects))
	res.Notes = append(res.Notes, note(
		"reads completed in the window: single-copy %d, replicated %d",
		single.reads, repl.reads))
	if o.Telemetry {
		res.Telemetry = append(res.Telemetry,
			NamedDump{Title: "ext-degrade single-copy final counters", Text: single.dump},
			NamedDump{Title: "ext-degrade replicated final counters", Text: repl.dump})
	}
	if o.Hists {
		res.Timelines = append(res.Timelines, single.timeline, repl.timeline)
	}
	if o.Flight {
		res.Flight = append(res.Flight,
			NamedDump{Title: "ext-degrade single-copy flight recorder", Text: single.flight},
			NamedDump{Title: "ext-degrade replicated flight recorder", Text: repl.flight})
	}
	if o.TraceOps {
		res.Tracks = append(res.Tracks, repl.tracks...)
	}
	return res
}
