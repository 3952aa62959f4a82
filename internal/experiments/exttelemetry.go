package experiments

import (
	"fmt"
	"strings"
	"time"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/metrics"
	"imca/internal/telemetry"
)

// ExtTelemetry watches an IMCa warm-up through the telemetry sampler: one
// client re-reads a file whose blocks start in neither cache, and the
// MCD-bank and server-pagecache hit rates are sampled against virtual time.
// The paper describes the dynamic narratively (§6): early reads fall
// through to the server, whose buffer cache warms first; as SMCache pushes
// blocks into the bank, the bank takes over and server traffic stops. The
// table shows both cumulative hit-rate curves plus the per-interval request
// counts whose crossover marks the hand-off.
func ExtTelemetry(o Options) *Result {
	const (
		recSize  = int64(2048)
		fileSize = int64(256 << 10)
		passes   = 6
		interval = 10 * time.Millisecond
	)
	records := int(fileSize / recSize)

	c := cluster.New(cluster.Options{
		Clients:          1,
		MCDs:             1,
		MCDMemBytes:      256 << 20,
		BlockSize:        recSize,
		ServerCacheBytes: scaled(6<<30, o.scale()),
	})
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	env := c.Env
	fs := gluster.Sync{FS: c.Mounts[0].FS}

	// Produce the dataset (untimed, unsampled).
	writer := env.ContextTask("ext-telemetry-write")
	fd, err := fs.Create(writer, "/warm/f0")
	if err != nil {
		panic(fmt.Sprintf("ext-telemetry: create: %v", err))
	}
	for off := int64(0); off < fileSize; off += recSize {
		if _, err := fs.Write(writer, fd, off, blob.Synthetic(1, off, recSize)); err != nil {
			panic(fmt.Sprintf("ext-telemetry: write: %v", err))
		}
	}
	env.Run()

	// Cold start: empty the bank and the server's buffer cache (and zero
	// its counters), as if the dataset had been produced elsewhere and the
	// measurement began at mount time.
	for _, m := range c.MCDs {
		m.Store().FlushAll()
	}
	pc := c.Posix.Cache()
	pc.Clear()
	pc.Hits, pc.Misses, pc.Evictions = 0, 0, 0

	start := env.Now()
	smp := telemetry.NewSampler(env, reg, interval)
	reader := env.ContextTask("ext-telemetry-read")
	for pass := 0; pass < passes; pass++ {
		for off := int64(0); off < fileSize; off += recSize {
			if _, err := fs.Read(reader, fd, off, recSize); err != nil {
				panic(fmt.Sprintf("ext-telemetry: read: %v", err))
			}
		}
	}
	env.Run()
	smp.Sample(env.Now()) // close the series at the end of the workload
	smp.Stop()

	times := smp.Times()
	bankRate := smp.Series("bank.hit_rate")
	pageRate := smp.Series("brick0.pagecache.hit_rate")
	bankHits := smp.Series("bank.hits")
	pageLookups := delta(add(smp.Series("brick0.pagecache.hits"), smp.Series("brick0.pagecache.misses")))
	bankServed := delta(bankHits)

	tb := metrics.NewTable(
		fmt.Sprintf("Ext: warm-up telemetry — hit rates vs virtual time (%d×%d-record passes, %s blocks)",
			passes, records, fmtSize(recSize)),
		"virtual time", "value",
		"bank hit rate", "pagecache hit rate", "bank hits Δ", "pagecache lookups Δ")
	for i, at := range times {
		tb.AddRow(at.String(), bankRate[i], pageRate[i], bankServed[i], pageLookups[i])
	}

	res := &Result{Name: "ext-telemetry", Table: tb}
	cross := -1
	for i := range times {
		if bankServed[i] > pageLookups[i] && bankServed[i] > 0 {
			cross = i
			break
		}
	}
	if cross >= 0 {
		res.Notes = append(res.Notes, note(
			"bank overtakes the server at %v: %.0f bank hits vs %.0f pagecache lookups in that interval",
			times[cross], bankServed[cross], pageLookups[cross]))
	} else {
		res.Notes = append(res.Notes, note("bank never overtakes the server within the run"))
	}
	res.Notes = append(res.Notes,
		note("final cumulative hit rates: bank %.3f (→ %d/%d passes warm), pagecache %.3f",
			bankRate[len(bankRate)-1], passes-1, passes, pageRate[len(pageRate)-1]))
	if o.Telemetry {
		var sb strings.Builder
		reg.Dump(&sb)
		res.Telemetry = append(res.Telemetry, NamedDump{Title: "ext-telemetry final counters", Text: sb.String()})
	}
	if o.Hists {
		res.Timelines = append(res.Timelines, timelineFrom(smp, start,
			"ext-telemetry: client0.fuse.read_lat", "client0.fuse.read_lat"))
	}
	if o.TraceOps {
		res.Tracks = append(res.Tracks,
			smp.CounterTracks("bank.hit_rate", "brick0.pagecache.hit_rate", "client0.fuse.read_lat")...)
	}
	return res
}

// add returns the elementwise sum of two equal-length series.
func add(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// delta converts a cumulative series into per-interval increments.
func delta(s []float64) []float64 {
	out := make([]float64, len(s))
	prev := 0.0
	for i, v := range s {
		out[i] = v - prev
		prev = v
	}
	return out
}
