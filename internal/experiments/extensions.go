package experiments

import (
	"fmt"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/core"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/lustre"
	"imca/internal/memcache"
	"imca/internal/metrics"
	"imca/internal/sim"
	"imca/internal/workload"
)

// The paper's §7 lists four future-work directions. These experiments
// implement and evaluate them on the same testbed:
//
//   ext-rdma     — RDMA instead of IPoIB for the cache bank's transport.
//   ext-hash     — alternative key-distribution algorithms (consistent
//                  hashing vs CRC32 vs block modulo).
//   ext-lustre   — the cache bank attached to Lustre via client-populated
//                  CMCache (no server-side translator needed).
//   ext-sharing  — relative scalability of a coherent client-side cache
//                  (Lustre) vs the intermediate bank under read/write
//                  sharing.

// ExtRDMA measures single-client read latency of the full IMCa stack when
// the interconnect is native RDMA rather than IPoIB — quantifying the
// paper's conjecture that RDMA "can help reduce the overhead of the cache
// bank".
func ExtRDMA(o Options) *Result {
	sizes := powersOfTwo(1, 65536)
	mcdMem := o.mcdMemForLatency()

	run := func(tr fabric.Transport) workload.LatencyResult {
		c, mounts := glusterMounts(gOpts(o, cluster.Options{
			Transport: tr, Clients: 1, MCDs: 2, MCDMemBytes: mcdMem,
		}))
		return latencyRunOn(o, c, mounts, sizes)
	}
	outs := runAll(o, []func() workload.LatencyResult{
		func() workload.LatencyResult { return run(fabric.IPoIB) },
		func() workload.LatencyResult { return run(fabric.RDMA) },
	})
	ipoib, rdma := outs[0], outs[1]

	tb := metrics.NewTable("Extension: IMCa read latency, IPoIB vs native RDMA transport",
		"record size", "read latency (µs/op)", "IMCa/IPoIB", "IMCa/RDMA")
	for _, r := range sizes {
		tb.AddRow(fmtSize(r), usPerOp(ipoib.Read[r]), usPerOp(rdma.Read[r]))
	}
	first := tb.LastRow()
	res := &Result{Name: "ext-rdma", Table: tb}
	res.Notes = []string{
		note("1-byte read: RDMA cuts %.0f%% off the IPoIB cache-bank latency",
			100*metrics.Reduction(tb.Value(0, "IMCa/IPoIB"), tb.Value(0, "IMCa/RDMA"))),
		note("64K read: RDMA cuts %.0f%% (bandwidth + per-byte host CPU both improve)",
			100*metrics.Reduction(first["IMCa/IPoIB"], first["IMCa/RDMA"])),
	}
	return res
}

// ExtHash compares key-distribution algorithms for the bank: the default
// CRC32, the static block modulo, and ketama consistent hashing — plus the
// resize stability (fraction of keys that move when the bank grows by one
// daemon), which is consistent hashing's raison d'être.
func ExtHash(o Options) *Result {
	scale := o.scale()
	fileSize := scaled(256<<20, scale)
	record := fileSize / 16
	mcdMem := scaled(6<<30, scale)

	selectors := []struct {
		name string
		sel  memcache.Selector
	}{
		{"CRC32", memcache.CRC32Selector{}},
		{"Modulo", memcache.BlockModuloSelector{BlockSize: 2048}},
		{"Ketama", memcache.NewKetamaSelector()},
	}

	tb := metrics.NewTable("Extension: key distribution across the bank (4 MCDs, 4 readers)",
		"metric", "value", "CRC32", "Modulo", "Ketama")

	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("/io/f%06d:%d", i%64, int64(i)*2048)
	}
	// One point per selector; each point owns its selector instance for
	// both the cluster run and the post-hoc resize-stability count.
	type hashOut struct{ tput, moved float64 }
	outs := points(o, len(selectors), func(i int) hashOut {
		s := selectors[i]
		c, mounts := glusterMounts(gOpts(o, cluster.Options{
			Clients: 4, MCDs: 4, MCDMemBytes: mcdMem, BlockSize: 2048, Selector: s.sel,
		}))
		res := workload.Throughput(c.Env, mounts, workload.ThroughputOptions{
			Dir: "/io", FileSize: fileSize, RecordSize: record,
		})
		return hashOut{tput: res.ReadBps / 1e6, moved: 100 * memcache.MovedKeys(s.sel, keys, 4)}
	})
	var tput, moved []float64
	for _, out := range outs {
		tput = append(tput, out.tput)
		moved = append(moved, out.moved)
	}
	tb.AddRow("read MB/s", tput...)
	tb.AddRow("% keys moved on bank grow 4->5", moved...)

	res := &Result{Name: "ext-hash", Table: tb}
	res.Notes = []string{
		note("throughput is distribution-insensitive once batches span the bank: %.0f / %.0f / %.0f MB/s",
			tput[0], tput[1], tput[2]),
		note("resize stability: ketama moves %.0f%% of keys vs %.0f%% for CRC32 modulo",
			moved[2], moved[0]),
	}
	return res
}

// ExtLustre attaches the cache bank to Lustre with the client-populated
// CMCache and repeats the shared-file experiment (Fig 10's workload):
// readers of a just-written file are served by the bank instead of the
// OSTs.
func ExtLustre(o Options) *Result {
	scale := o.scale()
	clientCounts := []int{2, 4, 8, 16, 32}
	const record = int64(4096)
	sizes := []int64{record}

	tb := metrics.NewTable("Extension: cache bank on Lustre (client-populated CMCache), shared file",
		"clients", "read latency (µs/op)",
		"Lustre-1DS(Cold)", "Lustre+IMCa(2MCD)")

	// One point per (client count, column) cell.
	cells := points(o, len(clientCounts)*2, func(i int) float64 {
		nc := clientCounts[i/2]
		if i%2 == 0 {
			// Plain Lustre, cold.
			cold := lustreLatencyRunShared(o, nc, scale, nil)
			return usPerOp(cold.Read[record])
		}
		// Lustre with client-populated IMCa.
		env := sim.NewEnv()
		net := fabric.NewNetwork(env, fabric.IPoIB)
		lus := lustre.New(env, net, "lus", lustreScaledConfig(1, scale))
		bank := []*memcache.SimServer{
			memcache.NewSimServer(net.NewNode("mcd0", 8), o.mcdMemForLatency()),
			memcache.NewSimServer(net.NewNode("mcd1", 8), o.mcdMemForLatency()),
		}
		cfg := core.Config{BlockSize: 2048, ClientPopulate: true}
		var mounts []gluster.FS
		var lclients []*lustre.Client
		for i := 0; i < nc; i++ {
			node := net.NewNode(fmt.Sprintf("lc%d", i), 8)
			lc := lus.NewClient(node)
			lclients = append(lclients, lc)
			mounts = append(mounts, core.NewCMCache(lc, memcache.NewSimClient(node, bank), cfg))
		}
		withIMCa := workload.Latency(env, mounts, workload.LatencyOptions{
			Dir: "/share", RecordSizes: sizes, Records: o.records(), Shared: true,
			AfterWrite:     dropAllFn(lclients),
			BeforeReadSize: func(int64) { dropAllFn(lclients)() },
		})
		return usPerOp(withIMCa.Read[record])
	})
	for r, nc := range clientCounts {
		tb.AddRow(fmt.Sprint(nc), cells[r*2], cells[r*2+1])
	}

	lastIdx := tb.Rows() - 1
	res := &Result{Name: "ext-lustre", Table: tb}
	res.Notes = []string{
		note("at %s clients the bank cuts Lustre cold shared-read latency %.0f%%",
			tb.X(lastIdx), 100*metrics.Reduction(
				tb.Value(lastIdx, "Lustre-1DS(Cold)"), tb.Value(lastIdx, "Lustre+IMCa(2MCD)"))),
	}
	return res
}

// ExtSharing compares the two caching strategies the paper's §7 asks
// about under repeated read/write sharing: Lustre's coherent client cache
// pays a revocation per writer update and a refetch per reader, while the
// intermediate bank absorbs both.
func ExtSharing(o Options) *Result {
	scale := o.scale()
	clientCounts := []int{2, 4, 8, 16, 32}
	const rounds = 8
	const chunk = int64(64 << 10)

	measure := func(mounts []gluster.FS, env *sim.Env) sim.Duration {
		nc := len(mounts)
		var fds []gluster.FD
		env.Process("setup", func(p *sim.Proc) {
			fds = make([]gluster.FD, nc)
			var err error
			if fds[0], err = (gluster.Sync{FS: mounts[0]}).Create(p, "/rw/shared"); err != nil {
				panic(err)
			}
			_, _ = (gluster.Sync{FS: mounts[0]}).Write(p, fds[0], 0, blob.Synthetic(1, 0, chunk))
			for i := 1; i < nc; i++ {
				if fds[i], err = (gluster.Sync{FS: mounts[i]}).Open(p, "/rw/shared"); err != nil {
					panic(err)
				}
			}
		})
		env.Run()

		bar := sim.NewBarrier(env, nc)
		arrive := func(t *sim.Task, done func()) { bar.Wait(t, done) }
		var readTime sim.Duration
		for i := 0; i < nc; i++ {
			i := i
			fs := gluster.Sync{FS: mounts[i]}
			env.Process(fmt.Sprintf("rw-%d", i), func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					if i == 0 {
						_, _ = (gluster.Sync{FS: mounts[0]}).Write(p, fds[0], 0, blob.Synthetic(uint64(r)+2, 0, chunk))
					}
					sim.Await(p, arrive)
					t0 := p.Now()
					if _, err := fs.Read(p, fds[i], 0, chunk); err != nil {
						panic(err)
					}
					readTime += p.Now().Sub(t0)
					sim.Await(p, arrive)
				}
			})
		}
		env.Run()
		return readTime / sim.Duration(rounds*nc)
	}

	tb := metrics.NewTable("Extension: coherent client cache vs cache bank, repeated write/read rounds",
		"clients", "read latency per round (µs)",
		"Lustre(coherent client cache)", "IMCa(2MCD)")

	// One point per (client count, column) cell.
	cells := points(o, len(clientCounts)*2, func(i int) float64 {
		nc := clientCounts[i/2]
		if i%2 == 0 {
			envL := sim.NewEnv()
			netL := fabric.NewNetwork(envL, fabric.IPoIB)
			lus := lustre.New(envL, netL, "lus", lustreScaledConfig(1, scale))
			var lm []gluster.FS
			for i := 0; i < nc; i++ {
				lm = append(lm, lus.NewClient(netL.NewNode(fmt.Sprintf("lc%d", i), 8)))
			}
			return usPerOp(measure(lm, envL))
		}
		c, mounts := glusterMounts(gOpts(o, cluster.Options{
			Clients: nc, MCDs: 2, MCDMemBytes: o.mcdMemForLatency(),
		}))
		return usPerOp(measure(mounts, c.Env))
	})
	for r, nc := range clientCounts {
		tb.AddRow(fmt.Sprint(nc), cells[r*2], cells[r*2+1])
	}

	lastIdx := tb.Rows() - 1
	res := &Result{Name: "ext-sharing", Table: tb}
	res.Notes = []string{
		note("at %s clients, bank reads are %.1fx %s than the coherent client cache's",
			tb.X(lastIdx),
			ratioOf(tb.Value(lastIdx, "Lustre(coherent client cache)"), tb.Value(lastIdx, "IMCa(2MCD)")),
			fasterOrSlower(tb.Value(lastIdx, "Lustre(coherent client cache)"), tb.Value(lastIdx, "IMCa(2MCD)"))),
		note("every writer round revokes all reader caches in Lustre; the bank absorbs the update instead"),
	}
	return res
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	if a >= b {
		return a / b
	}
	return b / a
}

func fasterOrSlower(lustreVal, imcaVal float64) string {
	if imcaVal < lustreVal {
		return "faster"
	}
	return "slower"
}

// lustreScaledConfig builds a Lustre config with caches scaled like
// lustreMounts does.
func lustreScaledConfig(osts, scale int) lustre.Config {
	cfg := lustre.DefaultConfig(osts)
	cfg.OSTCacheBytes = scaled(6<<30, scale)
	cfg.ClientCacheBytes = scaled(2<<30, scale)
	return cfg
}

// lustreLatencyRunShared runs the shared-file latency benchmark on plain
// Lustre with cold client caches.
func lustreLatencyRunShared(o Options, clients, scale int, _ interface{}) workload.LatencyResult {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	lus := lustre.New(env, net, "lus", lustreScaledConfig(1, scale))
	var mounts []gluster.FS
	var lclients []*lustre.Client
	for i := 0; i < clients; i++ {
		lc := lus.NewClient(net.NewNode(fmt.Sprintf("lc%d", i), 8))
		lclients = append(lclients, lc)
		mounts = append(mounts, lc)
	}
	return workload.Latency(env, mounts, workload.LatencyOptions{
		Dir: "/share", RecordSizes: []int64{4096}, Records: o.records(), Shared: true,
		AfterWrite:     dropAllFn(lclients),
		BeforeReadSize: func(int64) { dropAllFn(lclients)() },
	})
}

// dropAllFn mirrors dropAll for locally-built client slices.
func dropAllFn(lclients []*lustre.Client) func() {
	return func() {
		for _, lc := range lclients {
			lc.DropCaches()
		}
	}
}
