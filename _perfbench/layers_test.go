package main

import (
	"math"
	"strings"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		// Runtime work a layer calls is the layer's.
		{[]string{"runtime.mapassign_fast64", "imca/internal/pagecache.(*Cache).Insert", "imca/internal/gluster.(*Posix).read", "imca/internal/sim.(*Env).Run"}, "pagecache"},
		{[]string{"imca/internal/sim.(*eventHeap).pop (inline)", "imca/internal/sim.(*Env).RunUntil", "main.runRep"}, "sim"},
		// Helper packages attribute to their caller.
		{[]string{"imca/internal/blob.Synthetic", "imca/internal/xrand.(*Rand).Uint64", "imca/internal/workload.PrepareOpenLoop.func1"}, "workload"},
		{[]string{"imca/internal/bufpool.Get", "imca/internal/memcache.(*Store).Get"}, "memcache"},
		// metrics, optrace and flight are telemetry.
		{[]string{"imca/internal/metrics.(*Histogram).Observe", "imca/internal/workload.x"}, "telemetry"},
		{[]string{"imca/internal/optrace.(*Span).End"}, "telemetry"},
		{[]string{"imca/internal/flight.(*Recorder).Add"}, "telemetry"},
		// Type arguments naming another package do not count.
		{[]string{"imca/internal/parallel.Map[go.shape.struct { imca/internal/experiments.seconds float64 }].func1", "imca/internal/lustre.(*Cluster).handleMDS"}, "lustre"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.park_m", "runtime.mcall"}, "sched"},
		{[]string{"main.runRep", "main.main"}, "sched"},
		{nil, "sched"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestEveryLayerIsAPackageOrTelemetry(t *testing.T) {
	for _, l := range modelLayers {
		if layerOfPkg(l) != l {
			t.Errorf("layer %s does not map to itself", l)
		}
	}
	if len(cpuBuckets) != 12 {
		t.Errorf("%d CPU buckets, want 10 layers + gc + sched", len(cpuBuckets))
	}
}

// tracesText is `go tool pprof -traces` output in the toolchain's layout.
const tracesText = `File: perfbench
Type: cpu
Duration: 1.84s, Total samples = 1.67s (90.93%)
-----------+-------------------------------------------------------
      10ms   imca/internal/sim.(*eventHeap).push (inline)
             imca/internal/sim.(*Env).schedule
             imca/internal/fabric.serveBlockingT.func1
-----------+-------------------------------------------------------
     1.50s   runtime.memmove
             imca/internal/pagecache.(*Cache).Insert
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.mcall
-----------+-------------------------------------------------------
`

const allocTracesText = `File: perfbench
Type: alloc_objects
-----------+-------------------------------------------------------
     bytes:  64B
     16385   imca/internal/lustre.(*Cluster).statOf (inline)
             imca/internal/lustre.(*Cluster).handleMDS
-----------+-------------------------------------------------------
     bytes:  16B
     32768   fmt.Sprintf
             imca/internal/workload.FilePath (inline)
-----------+-------------------------------------------------------
`

func TestFoldTraces(t *testing.T) {
	fold, err := foldTraces(strings.NewReader(tracesText))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 10e6, "pagecache": 1.5e9, "gc": 30e6, "sched": 20e6}
	for l, v := range want {
		if fold[l] != v {
			t.Errorf("%s = %v ns, want %v", l, fold[l], v)
		}
	}
	if len(fold) != len(want) {
		t.Errorf("fold has %d layers, want %d: %v", len(fold), len(want), fold)
	}

	alloc, err := foldTraces(strings.NewReader(allocTracesText))
	if err != nil {
		t.Fatal(err)
	}
	if alloc["lustre"] != 16385 || alloc["workload"] != 32768 || len(alloc) != 2 {
		t.Errorf("alloc fold = %v", alloc)
	}
}

func TestSharesSumToOne(t *testing.T) {
	fold, err := foldTraces(strings.NewReader(tracesText))
	if err != nil {
		t.Fatal(err)
	}
	s := shares(fold, cpuBuckets)
	var sum float64
	for _, b := range cpuBuckets {
		sum += s[b]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("cpu shares sum to %v", sum)
	}
	if len(s) != len(cpuBuckets) {
		t.Errorf("%d shares for %d buckets", len(s), len(cpuBuckets))
	}
	for _, v := range shares(map[string]float64{}, cpuBuckets) {
		if v != 0 {
			t.Errorf("empty fold gives share %v", v)
		}
	}
}
