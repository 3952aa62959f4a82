// Command benchdiff compares two -benchjson files written by imcabench
// (via scripts/bench.sh) and fails when harness throughput regresses.
//
// Usage:
//
//	benchdiff [-max-regress 0.20] [-max-alloc-regress 0.02] [-per-figure] baseline.json after.json
//
// The comparison is over host-side events/sec — the virtual results are
// deterministic and covered by tests, so what benchdiff guards is the
// kernel's execution speed. Three checks run:
//
//   - Determinism: a figure present in both files must have dispatched
//     exactly the same number of kernel events. A mismatch means the two
//     runs simulated different work, which makes any throughput
//     comparison meaningless — and, when the files come from the serial
//     and parallel sweeps of the same tree, signals a determinism bug.
//
//   - Throughput: aggregate events/sec (total events over total wall
//     time) must not drop by more than -max-regress. With -per-figure,
//     the same bound applies to every figure individually; the default
//     aggregate-only mode tolerates per-figure noise from CPU contention
//     when the "after" file comes from a parallel sweep.
//
//   - Allocations: aggregate heap allocations per dispatched event must
//     not rise by more than -max-alloc-regress. Unlike wall time,
//     allocation counts are deterministic for a deterministic kernel, so
//     this bound can be tight (default 2%) without flaking: any rise
//     means code on a hot path started allocating, which is exactly the
//     creep the zero-alloc work exists to prevent. With -per-figure the
//     bound also applies to every figure individually (figures with a
//     sub-0.5 al/ev baseline are exempt per-figure — a 2% band around
//     almost-zero is noise from one-time warmup allocations).
//
// The table shows each figure's allocations per event and the delta
// against baseline alongside the throughput columns.
//
// Exit status: 0 when every check passes, 1 on a regression or event
// count mismatch, 2 on usage or parse errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"imca/internal/lint"
)

// benchRecord and benchFile mirror the -benchjson schema written by
// cmd/imcabench. Kept as a copy rather than a shared package: the JSON
// file on disk is the interface, and the two sides should fail loudly if
// they drift.
type benchRecord struct {
	Name         string  `json:"name"`
	WallMs       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerEvt float64 `json:"allocs_per_event"`
}

type benchFile struct {
	Scale       int           `json:"scale"`
	Workers     int           `json:"workers"`
	TotalWallMs float64       `json:"total_wall_ms"`
	Figures     []benchRecord `json:"figures"`
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.Figures) == 0 {
		return nil, fmt.Errorf("%s: no figures recorded", path)
	}
	return &bf, nil
}

func (bf *benchFile) byName() map[string]benchRecord {
	m := make(map[string]benchRecord, len(bf.Figures))
	for _, f := range bf.Figures {
		m[f.Name] = f
	}
	return m
}

// aggregate returns total events over total wall seconds — the sweep's
// overall throughput, robust to how work was sliced across figures — and
// the event-weighted mean allocations per event.
func (bf *benchFile) aggregate() (events uint64, perSec, allocsPerEvt float64) {
	var allocs float64
	for _, f := range bf.Figures {
		events += f.Events
		allocs += f.AllocsPerEvt * float64(f.Events)
	}
	if s := bf.TotalWallMs / 1e3; s > 0 {
		perSec = float64(events) / s
	}
	if events > 0 {
		allocsPerEvt = allocs / float64(events)
	}
	return events, perSec, allocsPerEvt
}

// regression returns the fractional throughput drop from base to after
// (0.25 = 25% slower); improvements come back negative.
func regression(base, after float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - after) / base
}

// requiredRoots are the hot paths whose per-event allocation cost the
// al/ev columns measure. Each must carry an //imcalint:hotpath
// annotation so imcalint's allocfree check guards statically what this
// table only observes after the fact; a missing annotation means the
// benchmark is watching a path the linter is not.
var requiredRoots = []string{
	"internal/sim.Env.RunUntil",
	"internal/telemetry.Hist.Observe",
	"internal/metrics.Histogram.Observe",
	"internal/flight.Recorder.Append",
	"internal/pagecache.Cache.Insert",
}

// checkLintRoots returns the hot paths in required that carry no
// //imcalint:hotpath annotation. It needs the module source, so it only
// works when benchdiff runs inside the repository.
func checkLintRoots(required []string) ([]string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return nil, fmt.Errorf("needs to run inside the module: %w", err)
	}
	roots, err := lint.HotPathRoots(root, []string{"./internal/..."})
	if err != nil {
		return nil, err
	}
	annotated := make(map[string]bool, len(roots))
	for _, r := range roots {
		annotated[r.Name] = true
	}
	var missing []string
	for _, name := range required {
		if !annotated[name] {
			missing = append(missing, name)
		}
	}
	return missing, nil
}

func main() {
	maxRegress := flag.Float64("max-regress", 0.20,
		"fail when events/sec drops by more than this fraction")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.02,
		"fail when allocations per event rise by more than this fraction (0 disables)")
	perFigure := flag.Bool("per-figure", false,
		"apply the bound to every figure, not just the aggregate")
	lintRoots := flag.Bool("lint-roots", false,
		"fail when a benchmarked hot path lacks an //imcalint:hotpath annotation")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [flags] baseline.json after.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *lintRoots {
		missing, err := checkLintRoots(requiredRoots)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: -lint-roots: %v\n", err)
			os.Exit(2)
		}
		for _, name := range missing {
			fmt.Fprintf(os.Stderr,
				"benchdiff: benchmarked hot path %s has no //imcalint:hotpath annotation — the al/ev column is unguarded by imcalint's allocfree check\n",
				name)
		}
		if len(missing) > 0 {
			os.Exit(1)
		}
		if flag.NArg() == 0 {
			os.Exit(0) // standalone annotation audit, no files to diff
		}
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	base, err := load(flag.Arg(0))
	if err == nil {
		var after *benchFile
		after, err = load(flag.Arg(1))
		if err == nil {
			os.Exit(diff(base, after, *maxRegress, *maxAllocRegress, *perFigure))
		}
	}
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(2)
}

// allocRise returns the fractional allocs-per-event increase from base to
// after; improvements come back negative.
func allocRise(base, after float64) float64 {
	if base <= 0 {
		return 0
	}
	return (after - base) / base
}

// allocFloor exempts near-zero per-figure baselines from the percentage
// bound: a 2% band around a fraction of an allocation per event is
// dominated by one-time warmup allocations, not hot-path behaviour. The
// aggregate bound still sees those figures at full weight.
const allocFloor = 0.5

func diff(base, after *benchFile, maxRegress, maxAllocRegress float64, perFigure bool) int {
	baseBy, afterBy := base.byName(), after.byName()

	names := make([]string, 0, len(baseBy))
	for n := range baseBy {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Printf("%-12s %14s %14s %8s %12s %12s %8s\n",
		"figure", "base ev/s", "after ev/s", "delta", "base al/ev", "after al/ev", "Δal/ev")
	failed := false
	for _, n := range names {
		b := baseBy[n]
		a, ok := afterBy[n]
		if !ok {
			fmt.Printf("%-12s %14.0f %14s %8s %12.2f %12s %8s\n",
				n, b.EventsPerSec, "-", "gone", b.AllocsPerEvt, "-", "-")
			continue
		}
		drop := regression(b.EventsPerSec, a.EventsPerSec)
		mark := ""
		if a.Events != b.Events {
			mark = "  EVENT COUNT MISMATCH"
			failed = true
			fmt.Fprintf(os.Stderr,
				"benchdiff: %s dispatched %d events vs %d in baseline — runs simulated different work\n",
				n, a.Events, b.Events)
		}
		if perFigure && drop > maxRegress {
			mark += "  REGRESSION"
			failed = true
		}
		if perFigure && maxAllocRegress > 0 && b.AllocsPerEvt >= allocFloor &&
			allocRise(b.AllocsPerEvt, a.AllocsPerEvt) > maxAllocRegress {
			mark += "  ALLOC REGRESSION"
			failed = true
			fmt.Fprintf(os.Stderr,
				"benchdiff: %s allocations per event rose %.1f%% (limit %.0f%%)\n",
				n, allocRise(b.AllocsPerEvt, a.AllocsPerEvt)*100, maxAllocRegress*100)
		}
		fmt.Printf("%-12s %14.0f %14.0f %+7.1f%% %12.2f %12.2f %+8.2f%s\n",
			n, b.EventsPerSec, a.EventsPerSec, -drop*100,
			b.AllocsPerEvt, a.AllocsPerEvt, a.AllocsPerEvt-b.AllocsPerEvt, mark)
	}
	var added []string
	for n := range afterBy {
		if _, ok := baseBy[n]; !ok {
			added = append(added, n)
		}
	}
	sort.Strings(added)
	for _, n := range added {
		fmt.Printf("%-12s %14s %14.0f %8s %12s %12.2f %8s\n",
			n, "-", afterBy[n].EventsPerSec, "new", "-", afterBy[n].AllocsPerEvt, "-")
	}

	_, basePS, baseAl := base.aggregate()
	_, afterPS, afterAl := after.aggregate()
	drop := regression(basePS, afterPS)
	fmt.Printf("%-12s %14.0f %14.0f %+7.1f%% %12.2f %12.2f %+8.2f\n",
		"aggregate", basePS, afterPS, -drop*100, baseAl, afterAl, afterAl-baseAl)
	if drop > maxRegress {
		fmt.Fprintf(os.Stderr,
			"benchdiff: aggregate events/sec regressed %.1f%% (limit %.0f%%)\n",
			drop*100, maxRegress*100)
		failed = true
	}
	if maxAllocRegress > 0 && allocRise(baseAl, afterAl) > maxAllocRegress {
		fmt.Fprintf(os.Stderr,
			"benchdiff: aggregate allocations per event rose %.1f%% (limit %.0f%%) — something on a hot path started allocating\n",
			allocRise(baseAl, afterAl)*100, maxAllocRegress*100)
		failed = true
	}

	if failed {
		return 1
	}
	fmt.Printf("ok: throughput within %.0f%% of baseline", maxRegress*100)
	if maxAllocRegress > 0 {
		fmt.Printf(", allocs/event within %.0f%%", maxAllocRegress*100)
	}
	fmt.Println()
	return 0
}
