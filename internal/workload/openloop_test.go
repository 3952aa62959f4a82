package workload

import (
	"testing"

	"imca/internal/cluster"
)

func openLoopOpts() OpenLoopOptions {
	return OpenLoopOptions{
		Dir:               "/ol",
		Files:             64,
		FileSize:          2048,
		Tenants:           200,
		ArrivalsPerTenant: 4,
		MeanInterarrival:  2e6, // 2ms
		Seed:              7,
	}
}

func openLoopCluster() *cluster.Cluster {
	return cluster.New(cluster.Options{Clients: 4, MCDs: 2, MCDMemBytes: 64 << 20, BlockSize: 2048})
}

func TestOpenLoopCompletes(t *testing.T) {
	c := openLoopCluster()
	opts := openLoopOpts()
	run := OpenLoop(c.Env, c.FSes(), opts)
	want := uint64(opts.Tenants * opts.ArrivalsPerTenant)
	if run.Issued != want || run.Completed != want {
		t.Fatalf("issued %d completed %d, want %d each", run.Issued, run.Completed, want)
	}
	if run.Latency.Count() != want {
		t.Fatalf("latency observations = %d, want %d", run.Latency.Count(), want)
	}
	if run.Elapsed <= 0 {
		t.Error("non-positive elapsed virtual time")
	}
	var sum uint64
	for _, n := range run.KeyReads {
		sum += n
	}
	if sum != want {
		t.Fatalf("key reads sum to %d, want %d", sum, want)
	}
}

// TestOpenLoopDeterministic re-runs the same geometry on a fresh cluster:
// every arrival stream, and therefore every latency and counter, must
// repeat exactly.
func TestOpenLoopDeterministic(t *testing.T) {
	runOnce := func() *OpenLoopRun {
		c := openLoopCluster()
		return OpenLoop(c.Env, c.FSes(), openLoopOpts())
	}
	a, b := runOnce(), runOnce()
	if a.Issued != b.Issued || a.Completed != b.Completed {
		t.Fatalf("counters differ: %d/%d vs %d/%d", a.Issued, a.Completed, b.Issued, b.Completed)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("elapsed differs: %v vs %v", a.Elapsed, b.Elapsed)
	}
	if a.Latency.Sum() != b.Latency.Sum() || a.Latency.Max() != b.Latency.Max() {
		t.Fatalf("latency distributions differ: sum %v/%v max %v/%v",
			a.Latency.Sum(), b.Latency.Sum(), a.Latency.Max(), b.Latency.Max())
	}
	for i := range a.KeyReads {
		if a.KeyReads[i] != b.KeyReads[i] {
			t.Fatalf("key %d drew %d then %d times", i, a.KeyReads[i], b.KeyReads[i])
		}
	}
}

// TestOpenLoopZipfSkew checks the popularity profile actually offered:
// under Zipf(1), the hottest file must far exceed the uniform share and
// the frequency ranking must roughly follow the key order.
func TestOpenLoopZipfSkew(t *testing.T) {
	c := openLoopCluster()
	opts := openLoopOpts()
	opts.Tenants = 500
	opts.ArrivalsPerTenant = 8
	run := OpenLoop(c.Env, c.FSes(), opts)
	uniform := float64(run.Issued) / float64(opts.Files)
	if head := float64(run.KeyReads[0]); head < 3*uniform {
		t.Errorf("hottest file drew %v reads, want ≥ 3× the uniform share %v", head, uniform)
	}
	// The head of the curve must dominate the tail end.
	var tail uint64
	for _, n := range run.KeyReads[opts.Files/2:] {
		tail += n
	}
	if run.KeyReads[0] < tail/8 {
		t.Errorf("head %d reads vs whole second half %d: skew too weak", run.KeyReads[0], tail)
	}
}
