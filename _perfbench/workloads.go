package main

import (
	"fmt"
	"time"

	"imca/internal/cluster"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/lustre"
	"imca/internal/sim"
	"imca/internal/telemetry"
	"imca/internal/workload"
)

// Workload scales. Each divides the paper's parameters the way
// imcabench's -scale does, so a cell here equals the figure cell at the
// same scale (reference_test.go checks it).
const (
	statScale   = 1024 // fig5: 256 files, each statted by every client
	statStride  = 1
	rwScale     = 4096 // fig7b: 16 records per size
	openScale   = 256  // ext-scale: 8 arrivals per tenant
	defaultSeed = 42   // ext-scale's seed
	heldOutSeed = 1009 // pinned too; confirms a claim on a seed not used while writing it
)

// values are one cell's virtual results, compared exactly against the
// pinned reference.
type values map[string]float64

// phase is a deployment whose setup has run.
type phase struct {
	// counts reads the layers' public counters.
	counts func() layerCounts
	// measure runs the measured phase and returns the cell's virtual
	// results and the number of simulated FS ops that completed.
	measure func() (values, uint64)
}

// cell is one figure cell: its own sim.Env and deployment.
type cell struct {
	name string
	// ops is the number of simulated FS ops the measured phase attempts
	// (stats, record reads and writes, open-loop arrivals).
	ops   uint64
	setup func() phase
}

// workloadDef names a workload and builds its cells for a seed.
type workloadDef struct {
	name string
	// seeded reports whether the seed changes the inputs; the closed-loop
	// matrices have no random input and share one reference for every
	// seed.
	seeded bool
	cells  func(seed uint64) []cell
}

var workloads = []workloadDef{
	{name: "stat_sweep", cells: statCells},
	{name: "rw_latency", cells: rwCells},
	{name: "open_loop", seeded: true, cells: openCells},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scaled divides a full-scale byte count by scale with a 1 MiB floor.
func scaled(full int64, scale int) int64 {
	v := full / int64(scale)
	if v < 1<<20 {
		v = 1 << 20
	}
	return v
}

// records is the per-size record count of the latency benchmarks.
func records(scale int) int {
	switch {
	case scale <= 2:
		return 1024
	case scale <= 16:
		return 256
	case scale <= 2048:
		return 64
	default:
		return 16
	}
}

// statCells is the fig5 matrix: every client count × {NoCache, MCD(1/2/4/6),
// Lustre-4DS}; setup creates the namespace, the measured phase stats a
// strided sample of it from every client.
func statCells(uint64) []cell {
	nFiles := 262144 / statScale
	if nFiles < 256 {
		nFiles = 256
	}
	mcdMem := int64(nFiles) * 160 * 2
	if mcdMem < 4<<20 {
		mcdMem = 4 << 20
	}
	perClient := uint64((nFiles + statStride - 1) / statStride)
	var out []cell
	for _, nc := range []int{1, 2, 4, 8, 16, 32, 64} {
		nc := nc
		ops := uint64(nc) * perClient
		stat := func(env *sim.Env, mounts []gluster.FS) func() (values, uint64) {
			workload.CreateFiles(env, mounts[0], "/stat", nFiles)
			return func() (values, uint64) {
				d := workload.StatBenchStrided(env, mounts, "/stat", nFiles, statStride)
				return values{"seconds": d.Seconds()}, ops
			}
		}
		out = append(out, cell{name: fmt.Sprintf("c%d/NoCache", nc), ops: ops, setup: func() phase {
			c := cluster.New(cluster.Options{Clients: nc, ServerCacheBytes: scaled(6<<30, statScale)})
			return phase{counts: glusterCounts(c), measure: stat(c.Env, c.FSes())}
		}})
		for _, m := range []int{1, 2, 4, 6} {
			m := m
			out = append(out, cell{name: fmt.Sprintf("c%d/MCD(%d)", nc, m), ops: ops, setup: func() phase {
				c := cluster.New(cluster.Options{
					Clients: nc, MCDs: m, MCDMemBytes: mcdMem,
					ServerCacheBytes: scaled(6<<30, statScale),
				})
				run := stat(c.Env, c.FSes())
				return phase{counts: glusterCounts(c), measure: func() (values, uint64) {
					v, done := run()
					st := c.BankStats()
					v["bank_miss_rate"] = float64(st.GetMisses) / float64(st.GetHits+st.GetMisses)
					return v, done
				}}
			}})
		}
		out = append(out, cell{name: fmt.Sprintf("c%d/Lustre-4DS", nc), ops: ops, setup: func() phase {
			env, lc, mounts := lustreDeploy(nc, 4, statScale)
			return phase{counts: lustreCounts(env, lc), measure: stat(env, mounts)}
		}})
	}
	return out
}

// lustreDeploy builds a Lustre cluster with the figures' scaled caches.
func lustreDeploy(clients, osts, scale int) (*sim.Env, *lustre.Cluster, []gluster.FS) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	cfg := lustre.DefaultConfig(osts)
	cfg.OSTCacheBytes = scaled(6<<30, scale)
	cfg.ClientCacheBytes = scaled(2<<30, scale)
	cl := lustre.New(env, net, "lustre", cfg)
	mounts := make([]gluster.FS, clients)
	for i := range mounts {
		mounts[i] = cl.NewClient(net.NewNode(fmt.Sprintf("lc%d", i), 8))
	}
	return env, cl, mounts
}

// rwCells are fig7b's NoCache and IMCa(4MCD) columns: 32 clients write,
// then read, 512 B–64 KB records with a barrier per size.
func rwCells(uint64) []cell {
	const clients = 32
	var sizes []int64
	for s := int64(512); s <= 65536; s *= 2 {
		sizes = append(sizes, s)
	}
	recs := records(rwScale)
	ops := uint64(clients * recs * len(sizes) * 2)
	mk := func(name string, opts cluster.Options) cell {
		opts.Clients = clients
		opts.ServerCacheBytes = scaled(6<<30, rwScale)
		return cell{name: name, ops: ops, setup: func() phase {
			c := cluster.New(opts)
			return phase{counts: glusterCounts(c), measure: func() (values, uint64) {
				lr := workload.Latency(c.Env, c.FSes(), workload.LatencyOptions{
					Dir: "/lat", RecordSizes: sizes, Records: recs,
				})
				v := values{}
				for _, s := range sizes {
					v[fmt.Sprintf("read_us/%d", s)] = float64(lr.Read[s]) / 1e3
					v[fmt.Sprintf("write_us/%d", s)] = float64(lr.Write[s]) / 1e3
				}
				if opts.MCDs > 0 {
					st := c.BankStats()
					v["bank_hit_rate"] = float64(st.GetHits) / float64(st.CmdGet)
				}
				return v, ops
			}}
		}}
	}
	return []cell{
		mk("NoCache", cluster.Options{}),
		mk("IMCa(4MCD)", cluster.Options{MCDs: 4, MCDMemBytes: 6 << 30 * int64(recs) / 1024}),
	}
}

// openCells are ext-scale's three offered rates: 10,000 Poisson tenants
// reading Zipf(1.0)-chosen 4 KB files through 16 mounts and 4 MCDs, with
// the telemetry sampler on. Setup builds the deployment and the working
// set; the measured phase runs every arrival.
func openCells(seed uint64) []cell {
	const (
		tenants  = 10000
		mounts   = 16
		files    = 256
		fileSize = int64(4096)
		mcds     = 4
		baseMean = 10 * time.Millisecond
		interval = 5 * time.Millisecond
	)
	arrivals := records(openScale) / 8
	if arrivals < 2 {
		arrivals = 2
	}
	ops := uint64(tenants * arrivals)
	var out []cell
	for _, r := range []struct {
		label string
		mul   int64
	}{{"0.5x", 1}, {"1x", 2}, {"2x", 4}} {
		r := r
		out = append(out, cell{name: r.label, ops: ops, setup: func() phase {
			c := cluster.New(cluster.Options{
				Clients:          mounts,
				MCDs:             mcds,
				MCDMemBytes:      scaled(6<<30, openScale),
				BlockSize:        fileSize,
				ServerCacheBytes: scaled(6<<30, openScale),
			})
			reg := telemetry.NewRegistry()
			c.Instrument(reg)
			run := workload.PrepareOpenLoop(c.Env, c.FSes(), workload.OpenLoopOptions{
				Dir:               "/scale",
				Files:             files,
				FileSize:          fileSize,
				Tenants:           tenants,
				ArrivalsPerTenant: arrivals,
				MeanInterarrival:  baseMean * 2 / time.Duration(r.mul),
				Seed:              seed,
			})
			reg.HistFrom("openloop.lat", run.Latency)
			smp := telemetry.NewSampler(c.Env, reg, interval)
			return phase{counts: glusterCounts(c), measure: func() (values, uint64) {
				run.Run()
				smp.Sample(c.Env.Now())
				smp.Stop()
				return openValues(c, run, mcds), run.Completed
			}}
		}})
	}
	return out
}

// openValues are ext-scale's row: latency quantiles, bank hit rate and the
// hottest daemon's share of hits over the bank mean.
func openValues(c *cluster.Cluster, run *workload.OpenLoopRun, mcds int) values {
	bank := c.BankStats()
	hitRate := 0.0
	if bank.CmdGet > 0 {
		hitRate = float64(bank.GetHits) / float64(bank.CmdGet)
	}
	var maxHits, sumHits uint64
	for _, s := range c.MCDs {
		h := s.Store().Stats().GetHits
		sumHits += h
		if h > maxHits {
			maxHits = h
		}
	}
	skew := 0.0
	if sumHits > 0 {
		skew = float64(maxHits) / (float64(sumHits) / float64(mcds))
	}
	us := func(q float64) float64 { return float64(run.Latency.Quantile(q)) / 1e3 }
	return values{
		"p50_us":    us(0.50),
		"p95_us":    us(0.95),
		"p99_us":    us(0.99),
		"hit_rate":  hitRate,
		"skew":      skew,
		"issued":    float64(run.Issued),
		"completed": float64(run.Completed),
	}
}

// layerCounts are the layers' public counters summed over a deployment.
type layerCounts struct {
	events                               uint64
	serverOps, mdsOps                    uint64
	mcdGets, mcdSets, mcdHits, mcdEvicts uint64
	pcHits, pcMisses, pcEvicts           uint64
	diskAccesses                         uint64
	statHits, statLookups                uint64
	blockHits, blockLookups, pushes      uint64
	ops, completed                       uint64
}

func (a layerCounts) sub(b layerCounts) layerCounts {
	return layerCounts{
		events: a.events - b.events, serverOps: a.serverOps - b.serverOps, mdsOps: a.mdsOps - b.mdsOps,
		mcdGets: a.mcdGets - b.mcdGets, mcdSets: a.mcdSets - b.mcdSets,
		mcdHits: a.mcdHits - b.mcdHits, mcdEvicts: a.mcdEvicts - b.mcdEvicts,
		pcHits: a.pcHits - b.pcHits, pcMisses: a.pcMisses - b.pcMisses, pcEvicts: a.pcEvicts - b.pcEvicts,
		diskAccesses: a.diskAccesses - b.diskAccesses,
		statHits:     a.statHits - b.statHits, statLookups: a.statLookups - b.statLookups,
		blockHits: a.blockHits - b.blockHits, blockLookups: a.blockLookups - b.blockLookups,
		pushes: a.pushes - b.pushes, ops: a.ops - b.ops, completed: a.completed - b.completed,
	}
}

func (a layerCounts) add(b layerCounts) layerCounts {
	return layerCounts{
		events: a.events + b.events, serverOps: a.serverOps + b.serverOps, mdsOps: a.mdsOps + b.mdsOps,
		mcdGets: a.mcdGets + b.mcdGets, mcdSets: a.mcdSets + b.mcdSets,
		mcdHits: a.mcdHits + b.mcdHits, mcdEvicts: a.mcdEvicts + b.mcdEvicts,
		pcHits: a.pcHits + b.pcHits, pcMisses: a.pcMisses + b.pcMisses, pcEvicts: a.pcEvicts + b.pcEvicts,
		diskAccesses: a.diskAccesses + b.diskAccesses,
		statHits:     a.statHits + b.statHits, statLookups: a.statLookups + b.statLookups,
		blockHits: a.blockHits + b.blockHits, blockLookups: a.blockLookups + b.blockLookups,
		pushes: a.pushes + b.pushes, ops: a.ops + b.ops, completed: a.completed + b.completed,
	}
}

// glusterCounts reads a GlusterFS/IMCa deployment's counters.
func glusterCounts(c *cluster.Cluster) func() layerCounts {
	return func() layerCounts {
		n := layerCounts{events: c.Env.EventsProcessed}
		for _, b := range c.Bricks {
			for _, v := range b.Server.Ops {
				n.serverOps += v
			}
			pc := b.Posix.Cache()
			n.pcHits += pc.Hits
			n.pcMisses += pc.Misses
			n.pcEvicts += pc.Evictions
			n.diskAccesses += b.Posix.DiskReads + b.Posix.DiskWrites
			if b.SMCache != nil {
				n.pushes += b.SMCache.Stats.BlockPushes + b.SMCache.Stats.StatPushes
			}
		}
		bank := c.BankStats()
		n.mcdGets, n.mcdSets, n.mcdHits, n.mcdEvicts = bank.CmdGet, bank.CmdSet, bank.GetHits, bank.Evictions
		for _, m := range c.Mounts {
			if m.CMCache != nil {
				st := m.CMCache.Stats
				n.statHits += st.StatHits
				n.statLookups += st.StatHits + st.StatMisses
				n.blockHits += st.BlockHits
				n.blockLookups += st.BlockLookups
			}
		}
		return n
	}
}

// lustreCounts reads a Lustre deployment's counters: MDS ops and the OSTs'
// page caches and disks.
func lustreCounts(env *sim.Env, cl *lustre.Cluster) func() layerCounts {
	return func() layerCounts {
		n := layerCounts{events: env.EventsProcessed, mdsOps: cl.MDSOps}
		for _, px := range cl.OSTs() {
			pc := px.Cache()
			n.pcHits += pc.Hits
			n.pcMisses += pc.Misses
			n.pcEvicts += pc.Evictions
			n.diskAccesses += px.DiskReads + px.DiskWrites
		}
		return n
	}
}
