package main

import (
	"fmt"
	"testing"

	"imca/internal/experiments"
)

func mustReference(t *testing.T) reference {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func mustPinned(t *testing.T, ref reference, name string, seed uint64) map[string]values {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	p := ref.pinned(w, seed)
	if p == nil {
		t.Fatalf("%s: no pinned reference for seed %d", name, seed)
	}
	return p
}

// TestReferenceMatchesFigures checks the pinned cells against the figures
// they reproduce, at the benchmark's scale: stat_sweep against fig5,
// rw_latency against fig7b's NoCache and IMCa(4MCD) columns, open_loop at
// the default seed against ext-scale.
func TestReferenceMatchesFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates three figures")
	}
	ref := mustReference(t)

	t.Run("stat_sweep", func(t *testing.T) {
		if statStride != 1 {
			t.Fatalf("fig5 is stride 1; the benchmark uses %d", statStride)
		}
		pinned := mustPinned(t, ref, "stat_sweep", defaultSeed)
		tb := experiments.Fig5(experiments.Options{Scale: statScale}).Table
		cols := []string{"NoCache", "MCD(1)", "MCD(2)", "MCD(4)", "MCD(6)", "Lustre-4DS"}
		if tb.Rows()*len(cols) != len(pinned) {
			t.Fatalf("fig5 has %d cells, reference %d", tb.Rows()*len(cols), len(pinned))
		}
		for r := 0; r < tb.Rows(); r++ {
			for _, col := range cols {
				name := fmt.Sprintf("c%s/%s", tb.X(r), col)
				if got, want := pinned[name]["seconds"], tb.Value(r, col); got != want {
					t.Errorf("%s: reference %v s, fig5 %v s", name, got, want)
				}
			}
		}
	})

	t.Run("rw_latency", func(t *testing.T) {
		pinned := mustPinned(t, ref, "rw_latency", defaultSeed)
		tb := experiments.Fig7b(experiments.Options{Scale: rwScale}).Table
		for r := 0; r < tb.Rows(); r++ {
			size := int64(512) << r
			for _, col := range []string{"NoCache", "IMCa(4MCD)"} {
				key := fmt.Sprintf("read_us/%d", size)
				if got, want := pinned[col][key], tb.Value(r, col); got != want {
					t.Errorf("%s %s: reference %v µs, fig7b (%s) %v µs", col, key, got, tb.X(r), want)
				}
			}
		}
	})

	t.Run("open_loop", func(t *testing.T) {
		pinned := mustPinned(t, ref, "open_loop", defaultSeed)
		tb := experiments.ExtScale(experiments.Options{Scale: openScale}).Table
		cols := map[string]string{
			"p50 µs": "p50_us", "p95 µs": "p95_us", "p99 µs": "p99_us",
			"bank hit rate": "hit_rate", "bank skew": "skew",
		}
		if tb.Rows() != len(pinned) {
			t.Fatalf("ext-scale has %d rows, reference %d", tb.Rows(), len(pinned))
		}
		for r := 0; r < tb.Rows(); r++ {
			for col, key := range cols {
				if got, want := pinned[tb.X(r)][key], tb.Value(r, col); got != want {
					t.Errorf("%s %s: reference %v, ext-scale %v", tb.X(r), key, got, want)
				}
			}
		}
	})
}

// TestCellsMatchReference runs one repetition of every pinned workload and
// seed and checks each cell against the reference, so the pins are what
// the benchmark actually computes.
func TestCellsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ref := mustReference(t)
	for _, tc := range []struct {
		name string
		seed uint64
	}{
		{"stat_sweep", defaultSeed},
		{"rw_latency", defaultSeed},
		{"open_loop", defaultSeed},
		{"open_loop", heldOutSeed},
	} {
		t.Run(fmt.Sprintf("%s/%d", tc.name, tc.seed), func(t *testing.T) {
			pinned := mustPinned(t, ref, tc.name, tc.seed)
			w, _ := findWorkload(tc.name)
			cells := w.cells(tc.seed)
			r, err := runRep(cells, nil)
			if err != nil {
				t.Fatal(err)
			}
			if attempted, failed := check(cells, []rep{r}, pinned); failed != 0 {
				t.Errorf("%d of %d ops failed", failed, attempted)
			}
			if len(pinned) != len(cells) {
				t.Errorf("reference has %d cells, workload %d", len(pinned), len(cells))
			}
		})
	}
}

// TestUnpinnedSeedCompletes is the held-out rule: a seed with no pinned
// reference is correct when every arrival completes.
func TestUnpinnedSeedCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs open_loop")
	}
	const seed = 7
	w, _ := findWorkload("open_loop")
	if mustReference(t).pinned(w, seed) != nil {
		t.Fatalf("seed %d is pinned; pick another", seed)
	}
	cells := w.cells(seed)
	r, err := runRep(cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed := check(cells, []rep{r}, nil)
	if failed != 0 || attempted != r.counts.ops || r.counts.completed != r.counts.ops {
		t.Errorf("attempted %d, failed %d, completed %d of %d", attempted, failed, r.counts.completed, r.counts.ops)
	}
}

// TestCheckCountsMismatch: a cell whose results differ from the reference
// fails all of its ops, and a short completion count fails the rest.
func TestCheckCountsMismatch(t *testing.T) {
	cells := []cell{{name: "a", ops: 10}, {name: "b", ops: 5}}
	r := rep{
		cells: map[string]values{"a": {"x": 1}, "b": {"x": 2}},
		done:  map[string]uint64{"a": 10, "b": 3},
	}
	if a, f := check(cells, []rep{r}, nil); a != 15 || f != 2 {
		t.Errorf("unpinned: attempted %d failed %d, want 15 and 2", a, f)
	}
	pinned := map[string]values{"a": {"x": 1.5}, "b": {"x": 2}}
	if a, f := check(cells, []rep{r}, pinned); a != 15 || f != 12 {
		t.Errorf("pinned: attempted %d failed %d, want 15 and 12", a, f)
	}
}
