// Command perfbench is the repository's cross-commit benchmark. It replays
// three workloads built from the simulator's layers — the fig5 stat matrix
// (stat_sweep), the fig7b write/read latency cells (rw_latency) and the
// ext-scale open-loop tenants (open_loop) — and reports host speed: wall
// time of the measured phase, events per second, set-up time, allocations
// per event, peak RSS and the share of simulated operations that succeeded.
// Every run checks each cell's virtual results against the pinned
// reference. With -trace 1 it instead profiles the measured phase and
// reports per-layer CPU and allocation shares plus the layers' counters.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash _perfbench/run.sh --workload stat_sweep --seed 42 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minReps is the fewest repetitions of the workload a run makes, however
// short its time budget; medians are taken over them.
const minReps = 3

// buildDir holds everything a run writes (profiles), inside the checkout.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rep is one pass over every cell of a workload: all set-ups, then all
// measured phases.
type rep struct {
	setup, wall time.Duration
	mallocs     uint64
	gcCycles    uint32
	// counts are the measured phase's layer counters, summed over cells.
	counts layerCounts
	cells  map[string]values
	done   map[string]uint64 // completed ops per cell
}

func main() {
	name := flag.String("workload", "", "workload to run: stat_sweep, rw_latency or open_loop")
	seed := flag.Uint64("seed", defaultSeed, "input seed (open_loop's tenant streams)")
	seconds := flag.Float64("seconds", 10, "time budget of the measured repetitions")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: profiled per-layer metrics")
	update := flag.String("update", "", "run the workload once and store its cells as the reference in this file")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, update string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	cells := w.cells(seed)
	if update != "" {
		r, err := runRep(cells, nil)
		if err != nil {
			return err
		}
		return writeReference(update, w, seed, r.cells)
	}
	pinned := ref.pinned(w, seed)
	fmt.Printf("# perfbench workload=%s seed=%d trace=%d cells=%d reference=%s gomaxprocs=%d nproc=%d go=%s\n",
		w.name, seed, trace, len(cells), refState(pinned), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	budget := time.Duration(seconds * float64(time.Second))
	var res result
	if trace == 0 {
		reps, err := repeat(cells, budget, nil)
		if err != nil {
			return err
		}
		printReps(reps)
		res = endToEnd(reps)
		res.Attempted, res.Failed = check(cells, reps, pinned)
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
		res.Metrics["success_rate"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "fraction"}
	} else {
		plain, err := repeat(cells, budget/2, nil)
		if err != nil {
			return err
		}
		prof, err := newProfiler(buildDir)
		if err != nil {
			return err
		}
		traced, err := repeat(cells, budget/2, prof)
		if err != nil {
			prof.close()
			return err
		}
		cpu, allocs, err := prof.fold()
		prof.close()
		if err != nil {
			return err
		}
		res = perLayer(plain, traced, cpu, allocs)
		res.Attempted, res.Failed = check(cells, append(plain, traced...), pinned)
	}
	res.Correct = res.Failed == 0
	printMetrics(res)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func refState(pinned map[string]values) string {
	if pinned == nil {
		return "none(completion-only)"
	}
	return "pinned"
}

// repeat runs whole repetitions until budget has passed, and at least
// minReps of them.
func repeat(cells []cell, budget time.Duration, prof *profiler) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		r, err := runRep(cells, prof)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// runRep sets up every cell, then runs every measured phase. Set-up and
// the measured phase are timed separately; a GC between them keeps set-up
// garbage out of the measured phase, and a profiler, when given, records
// exactly the measured phase.
func runRep(cells []cell, prof *profiler) (rep, error) {
	r := rep{cells: make(map[string]values, len(cells)), done: make(map[string]uint64, len(cells))}
	phases := make([]phase, len(cells))
	before := make([]layerCounts, len(cells))
	t0 := time.Now()
	for i, c := range cells {
		phases[i] = c.setup()
	}
	r.setup = time.Since(t0)
	for i := range phases {
		before[i] = phases[i].counts()
	}

	runtime.GC()
	if prof != nil {
		if err := prof.start(); err != nil {
			return rep{}, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	for i, c := range cells {
		v, done := phases[i].measure()
		n := phases[i].counts().sub(before[i])
		n.ops, n.completed = c.ops, done
		r.counts = r.counts.add(n)
		r.cells[c.name] = v
		r.done[c.name] = done
		phases[i] = phase{} // release the deployment
	}
	r.wall = time.Since(t1)
	runtime.ReadMemStats(&ms1)
	if prof != nil {
		if err := prof.stop(); err != nil {
			return rep{}, err
		}
	}
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.gcCycles = ms1.NumGC - ms0.NumGC
	return r, nil
}

// check counts the simulated FS ops attempted and failed over every
// repetition. An op fails if it never completed, or if its cell's virtual
// results differ from the pinned reference (when one exists). Ops that
// return an error panic in the workload drivers and fail the whole run.
func check(cells []cell, reps []rep, pinned map[string]values) (attempted, failed uint64) {
	reported := map[string]bool{}
	for _, r := range reps {
		for _, c := range cells {
			attempted += c.ops
			got := r.cells[c.name]
			if pinned != nil && !got.equal(pinned[c.name]) {
				failed += c.ops
				if !reported[c.name] {
					reported[c.name] = true
					fmt.Fprintf(os.Stderr, "perfbench: cell %s differs from the reference:\n%s", c.name, got.diff(pinned[c.name]))
				}
				continue
			}
			if done := r.done[c.name]; done < c.ops {
				failed += c.ops - done
			}
		}
	}
	return attempted, failed
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd computes the untraced run's metrics as medians over reps.
func endToEnd(reps []rep) result {
	return result{Metrics: map[string]metric{
		"wall_s":  {medianOf(reps, func(r rep) float64 { return r.wall.Seconds() }), "s"},
		"setup_s": {medianOf(reps, func(r rep) float64 { return r.setup.Seconds() }), "s"},
		"events_per_sec": {medianOf(reps, func(r rep) float64 {
			return float64(r.counts.events) / r.wall.Seconds()
		}), "events/s"},
		"allocs_per_event": {medianOf(reps, func(r rep) float64 {
			return float64(r.mallocs) / float64(r.counts.events)
		}), "allocs/event"},
	}}
}

// perLayer computes the traced run's metrics: CPU and allocation shares
// by layer, the layers' counters over one repetition, and each layer's
// CPU time per unit of its work.
func perLayer(plain, traced []rep, cpu, allocs map[string]float64) result {
	m := map[string]metric{}
	for l, s := range shares(cpu, cpuBuckets) {
		m[l+".cpu_share"] = metric{s, "fraction"}
	}
	for l, s := range shares(allocs, modelLayers) {
		m[l+".alloc_share"] = metric{s, "fraction"}
	}
	n := traced[0].counts
	reps := float64(len(traced))
	per := func(layer string, count uint64) float64 {
		if count == 0 {
			return 0
		}
		return cpu[layer] / reps / float64(count)
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	rpcs := n.serverOps + n.mcdGets + n.mcdSets + n.mdsOps
	coreOps := n.statLookups + n.blockLookups + n.pushes
	count := func(v uint64) metric { return metric{float64(v), "count"} }
	ns := func(v float64) metric { return metric{v, "ns"} }
	frac := func(v float64) metric { return metric{v, "fraction"} }
	m["sim.events"] = count(n.events)
	m["sim.ns_per_event"] = ns(per("sim", n.events))
	m["fabric.rpcs"] = count(rpcs)
	m["fabric.ns_per_rpc"] = ns(per("fabric", rpcs))
	m["memcache.gets"] = count(n.mcdGets)
	m["memcache.sets"] = count(n.mcdSets)
	m["memcache.hit_ratio"] = frac(ratio(n.mcdHits, n.mcdGets))
	m["memcache.evictions"] = count(n.mcdEvicts)
	m["memcache.ns_per_op"] = ns(per("memcache", n.mcdGets+n.mcdSets))
	m["pagecache.accesses"] = count(n.pcHits + n.pcMisses)
	m["pagecache.hit_ratio"] = frac(ratio(n.pcHits, n.pcHits+n.pcMisses))
	m["pagecache.evictions"] = count(n.pcEvicts)
	m["pagecache.ns_per_access"] = ns(per("pagecache", n.pcHits+n.pcMisses))
	m["disk.accesses"] = count(n.diskAccesses)
	m["disk.ns_per_access"] = ns(per("disk", n.diskAccesses))
	m["gluster.server_ops"] = count(n.serverOps)
	m["gluster.ns_per_op"] = ns(per("gluster", n.serverOps))
	m["core.stat_hit_ratio"] = frac(ratio(n.statHits, n.statLookups))
	m["core.block_hit_ratio"] = frac(ratio(n.blockHits, n.blockLookups))
	m["core.pushes"] = count(n.pushes)
	m["core.ns_per_op"] = ns(per("core", coreOps))
	m["lustre.mds_ops"] = count(n.mdsOps)
	m["lustre.ns_per_op"] = ns(per("lustre", n.mdsOps))
	m["workload.ops"] = count(n.ops)
	m["workload.completed"] = count(n.completed)
	m["gc.cycles"] = metric{medianOf(traced, func(r rep) float64 { return float64(r.gcCycles) }), "count"}
	tracedWall := medianOf(traced, func(r rep) float64 { return r.wall.Seconds() })
	plainWall := medianOf(plain, func(r rep) float64 { return r.wall.Seconds() })
	m["trace.overhead_frac"] = frac(tracedWall/plainWall - 1)
	return result{Metrics: m}
}

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// printReps writes each repetition's set-up and measured-phase times.
func printReps(reps []rep) {
	fmt.Printf("# %d reps (setup_s/wall_s):", len(reps))
	for _, r := range reps {
		fmt.Printf(" %.3f/%.3f", r.setup.Seconds(), r.wall.Seconds())
	}
	fmt.Println()
}

// printMetrics writes one "name value unit" line per metric.
func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-26s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("%-26s %16d ops (failed %d)\n", "attempted", res.Attempted, res.Failed)
}
