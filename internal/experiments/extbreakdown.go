package experiments

import (
	"fmt"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/metrics"
	"imca/internal/optrace"
)

// ExtBreakdown decomposes the latency of a single warm 2 KB read by stack
// layer for each IMCa block size — the Fig-6-style evidence behind the
// paper's §6 discussion of where a cached read's time goes. The file is
// written first (SMCache pushes the covering blocks bank-side), so the
// traced read is the warm fast path: FUSE crossing, CMCache assembly, and
// one MCD bank round trip, never touching the GlusterFS server.
func ExtBreakdown(o Options) *Result {
	const record = 2048
	blockSizes := []int64{256, 2048, 8192}

	type run struct {
		name string
		b    *optrace.Breakdown
	}
	// One point per block size, each with its own cluster and collector.
	runs := points(o, len(blockSizes), func(i int) run {
		bs := blockSizes[i]
		c := cluster.New(cluster.Options{
			Clients: 1, MCDs: 1, MCDMemBytes: 256 << 20, BlockSize: bs,
			ServerCacheBytes: scaled(6<<30, o.scale()),
		})
		col := optrace.NewCollector()
		fs := gluster.Sync{FS: c.Mounts[0].FS}
		t := c.Env.ContextTask("ext-breakdown")
		fd, err := fs.Create(t, "/b")
		if err != nil {
			panic(fmt.Sprintf("ext-breakdown: create: %v", err))
		}
		if _, err := fs.Write(t, fd, 0, blob.Synthetic(1, 0, 65536)); err != nil {
			panic(fmt.Sprintf("ext-breakdown: write: %v", err))
		}
		col.Begin(t, "read")
		root := optrace.StartSpan(t, optrace.LayerOp, "read")
		data, err := fs.Read(t, fd, 0, record)
		root.End(t)
		col.End(t)
		if err != nil || data.Len() != record {
			panic(fmt.Sprintf("ext-breakdown: read %d bytes: %v", data.Len(), err))
		}
		c.Env.Run()
		return run{fmt.Sprintf("IMCa-%s", fmtSize(bs)), col.Breakdown()}
	})

	// Union of observed layers, in canonical stack order.
	seen := make(map[string]bool)
	var layers []string
	for _, r := range runs {
		for _, n := range r.b.Layers() {
			if !seen[n] {
				seen[n] = true
				layers = append(layers, n)
			}
		}
	}
	optrace.SortLayers(layers)

	series := make([]string, len(runs))
	for i, r := range runs {
		series[i] = r.name
	}
	tb := metrics.NewTable("Ext: per-layer decomposition of one warm 2 KB read",
		"layer", "mean self time (µs)", series...)
	for _, ln := range layers {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.b.LayerMeanUs(ln)
		}
		tb.AddRow(ln, vals...)
	}
	totals := make([]float64, len(runs))
	for i, r := range runs {
		totals[i] = r.b.TotalMeanUs()
	}
	tb.AddRow("end-to-end", totals...)

	res := &Result{Name: "ext-breakdown", Table: tb}
	for _, r := range runs {
		res.Breakdowns = append(res.Breakdowns, NamedBreakdown{r.name + " warm 2 KB read", r.b})
	}

	// The decomposition is a partition: layer segments must telescope to
	// the end-to-end time.
	mid := runs[1] // the 2 KB block size matches the record size
	var sumUs float64
	for _, ln := range layers {
		sumUs += mid.b.LayerMeanUs(ln)
	}
	bankUs := mid.b.LayerMeanUs(optrace.LayerMCD) + mid.b.LayerMeanUs(optrace.LayerNet) +
		mid.b.LayerMeanUs(optrace.LayerMCDSrv)
	res.Notes = []string{
		note("IMCa-2K: Σ layer segments %.1f µs vs end-to-end %.1f µs (partition: equal)",
			sumUs, mid.b.TotalMeanUs()),
		note("IMCa-2K: bank round trip (mcd+net+mcdsrv) is %.1f µs of %.1f µs (%.0f%%)",
			bankUs, mid.b.TotalMeanUs(), 100*bankUs/mid.b.TotalMeanUs()),
		note("no server/smcache/posix segments: %v (warm reads never reach the GlusterFS server)",
			mid.b.Layer(optrace.LayerServer) == nil && mid.b.Layer(optrace.LayerPosix) == nil),
	}
	return res
}
