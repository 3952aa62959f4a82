package main

import "testing"

func file(total float64, figs ...benchRecord) *benchFile {
	return &benchFile{Scale: 1024, TotalWallMs: total, Figures: figs}
}

func rec(name string, events uint64, wallMs float64) benchRecord {
	r := benchRecord{Name: name, Events: events, WallMs: wallMs}
	if s := wallMs / 1e3; s > 0 {
		r.EventsPerSec = float64(events) / s
	}
	return r
}

func TestDiffWithinBound(t *testing.T) {
	base := file(300, rec("fig4", 1000, 100), rec("fig5", 2000, 200))
	after := file(330, rec("fig4", 1000, 110), rec("fig5", 2000, 220))
	if code := diff(base, after, 0.20, 0.02, false); code != 0 {
		t.Errorf("10%% slowdown under a 20%% bound exited %d, want 0", code)
	}
}

func TestDiffAggregateRegression(t *testing.T) {
	base := file(300, rec("fig4", 1000, 100), rec("fig5", 2000, 200))
	after := file(450, rec("fig4", 1000, 150), rec("fig5", 2000, 300))
	if code := diff(base, after, 0.20, 0.02, false); code != 1 {
		t.Errorf("33%% aggregate slowdown exited %d, want 1", code)
	}
}

func TestDiffPerFigureRegression(t *testing.T) {
	// One figure craters but the other improves enough that the
	// aggregate stays inside the bound: only -per-figure catches it.
	base := file(200, rec("fig4", 1000, 100), rec("fig5", 1000, 100))
	after := file(210, rec("fig4", 1000, 170), rec("fig5", 1000, 40))
	if code := diff(base, after, 0.20, 0.02, false); code != 0 {
		t.Errorf("aggregate-only mode exited %d, want 0", code)
	}
	if code := diff(base, after, 0.20, 0.02, true); code != 1 {
		t.Errorf("per-figure mode exited %d, want 1", code)
	}
}

func TestDiffEventCountMismatch(t *testing.T) {
	base := file(100, rec("fig4", 1000, 100))
	after := file(100, rec("fig4", 1001, 100))
	if code := diff(base, after, 0.20, 0.02, false); code != 1 {
		t.Errorf("event count mismatch exited %d, want 1 (determinism breach)", code)
	}
}

func TestDiffUnmatchedFigures(t *testing.T) {
	// Figures present in only one file are reported but never fatal:
	// registries grow across PRs and the committed baseline lags.
	base := file(100, rec("fig4", 1000, 100), rec("gone", 500, 50))
	after := file(100, rec("fig4", 1000, 100), rec("new", 500, 50))
	if code := diff(base, after, 0.20, 0.02, false); code != 0 {
		t.Errorf("unmatched figures exited %d, want 0", code)
	}
}

func TestDiffAllocRegression(t *testing.T) {
	withAllocs := func(al float64, r benchRecord) benchRecord {
		r.AllocsPerEvt = al
		return r
	}
	base := file(200, withAllocs(2.0, rec("fig4", 1000, 100)), withAllocs(2.0, rec("fig5", 1000, 100)))
	// Same speed, but allocations per event rose 10% — the hard gate fires
	// even though throughput is fine.
	after := file(200, withAllocs(2.2, rec("fig4", 1000, 100)), withAllocs(2.2, rec("fig5", 1000, 100)))
	if code := diff(base, after, 0.20, 0.02, false); code != 1 {
		t.Errorf("10%% alloc/event rise under a 2%% bound exited %d, want 1", code)
	}
	// Inside the band: a 1% rise passes.
	after = file(200, withAllocs(2.02, rec("fig4", 1000, 100)), withAllocs(2.02, rec("fig5", 1000, 100)))
	if code := diff(base, after, 0.20, 0.02, false); code != 0 {
		t.Errorf("1%% alloc/event rise under a 2%% bound exited %d, want 0", code)
	}
	// 0 disables the gate entirely.
	after = file(200, withAllocs(4.0, rec("fig4", 1000, 100)), withAllocs(4.0, rec("fig5", 1000, 100)))
	if code := diff(base, after, 0.20, 0, false); code != 0 {
		t.Errorf("disabled alloc gate exited %d, want 0", code)
	}
}

func TestDiffPerFigureAllocRegression(t *testing.T) {
	withAllocs := func(al float64, r benchRecord) benchRecord {
		r.AllocsPerEvt = al
		return r
	}
	// One figure's allocations jump while a bigger figure improves enough
	// that the aggregate stays flat: only -per-figure catches it.
	base := file(200, withAllocs(2.0, rec("fig4", 1000, 100)), withAllocs(2.0, rec("fig5", 9000, 100)))
	after := file(200, withAllocs(3.0, rec("fig4", 1000, 100)), withAllocs(1.8, rec("fig5", 9000, 100)))
	if code := diff(base, after, 0.20, 0.02, false); code != 0 {
		t.Errorf("aggregate-only mode exited %d, want 0", code)
	}
	if code := diff(base, after, 0.20, 0.02, true); code != 1 {
		t.Errorf("per-figure mode exited %d, want 1", code)
	}
	// A near-zero per-figure baseline is exempt from the per-figure band.
	base = file(200, withAllocs(0.1, rec("fig4", 1000, 100)))
	after = file(200, withAllocs(0.2, rec("fig4", 1000, 100)))
	if code := diff(base, after, 0.20, 0.02, true); code != 1 {
		// Doubling 0.1 al/ev still breaches the aggregate bound.
		t.Errorf("sub-floor aggregate rise exited %d, want 1", code)
	}
	base = file(200, withAllocs(0.1, rec("fig4", 1000, 100)), withAllocs(2.0, rec("fig5", 99000, 100)))
	after = file(200, withAllocs(0.15, rec("fig4", 1000, 100)), withAllocs(2.0, rec("fig5", 99000, 100)))
	if code := diff(base, after, 0.20, 0.02, true); code != 0 {
		t.Errorf("sub-floor per-figure jitter exited %d, want 0", code)
	}
}

func TestRegression(t *testing.T) {
	if r := regression(100, 80); r != 0.20 {
		t.Errorf("regression(100, 80) = %v, want 0.20", r)
	}
	if r := regression(100, 120); r != -0.20 {
		t.Errorf("regression(100, 120) = %v, want -0.20 (improvement)", r)
	}
	if r := regression(0, 50); r != 0 {
		t.Errorf("regression with zero baseline = %v, want 0", r)
	}
}

func TestAggregateAllocsPerEvent(t *testing.T) {
	// Event-weighted mean: (100×2 + 300×6) / 400 = 5.
	bf := file(100,
		benchRecord{Name: "a", Events: 100, AllocsPerEvt: 2},
		benchRecord{Name: "b", Events: 300, AllocsPerEvt: 6})
	if _, _, al := bf.aggregate(); al != 5 {
		t.Errorf("aggregate allocs/event = %v, want 5", al)
	}
}

// TestLintRootsMissing: every benchmarked hot path in the tree is
// annotated, and a root nobody annotated is reported as missing.
func TestLintRootsMissing(t *testing.T) {
	missing, err := checkLintRoots(requiredRoots)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Errorf("annotated roots reported missing: %v", missing)
	}
	const absent = "internal/sim.Env.NoSuchHotPath"
	missing, err = checkLintRoots(append([]string{absent}, requiredRoots...))
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != absent {
		t.Errorf("missing = %v, want [%s]", missing, absent)
	}
}
