package cluster

import (
	"testing"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/memcache"
	"imca/internal/workload"
)

func TestDefaultsApplied(t *testing.T) {
	c := New(Options{})
	if len(c.Mounts) != 1 {
		t.Errorf("default clients = %d, want 1", len(c.Mounts))
	}
	if len(c.Bricks) != 1 {
		t.Errorf("default bricks = %d, want 1", len(c.Bricks))
	}
	if c.Opts.Transport.Name != fabric.IPoIB.Name {
		t.Errorf("default transport = %s, want IPoIB", c.Opts.Transport.Name)
	}
	if c.SMCache != nil || len(c.MCDs) != 0 {
		t.Error("MCDs deployed without being requested")
	}
	if c.Mounts[0].CMCache != nil {
		t.Error("CMCache present without MCDs")
	}
}

func TestIMCaWiring(t *testing.T) {
	c := New(Options{Clients: 3, MCDs: 2, MCDMemBytes: 32 << 20})
	if len(c.MCDs) != 2 {
		t.Fatalf("MCDs = %d", len(c.MCDs))
	}
	if c.SMCache == nil {
		t.Fatal("SMCache missing")
	}
	for i, m := range c.Mounts {
		if m.CMCache == nil {
			t.Errorf("mount %d lacks CMCache", i)
		}
	}
	if len(c.FSes()) != 3 {
		t.Errorf("FSes = %d", len(c.FSes()))
	}
}

func TestSelectorPropagates(t *testing.T) {
	c := New(Options{Clients: 1, MCDs: 4, MCDMemBytes: 32 << 20,
		Selector: memcache.BlockModuloSelector{BlockSize: 2048}, BlockSize: 2048})
	// Consecutive blocks written through the stack must land round-robin.
	p := c.Env.ContextTask("t")
	fs := c.Mounts[0].FS
	fd, _ := blocking(fs).Create(p, "/sel/f")
	blocking(fs).Write(p, fd, 0, blob.Synthetic(1, 0, 8192)) // 4 blocks
	c.Env.Run()
	for i, m := range c.MCDs {
		if got := m.Store().Len(); got == 0 && i < 4 {
			// stat key goes by CRC32, blocks round-robin: every MCD
			// holds at least its block.
			t.Errorf("mcd%d empty; round-robin selector not wired", i)
		}
	}
}

func TestMultiBrickSpreadsNamespace(t *testing.T) {
	c := New(Options{Clients: 2, Bricks: 3})
	if len(c.Bricks) != 3 {
		t.Fatalf("bricks = %d", len(c.Bricks))
	}
	workload.CreateFiles(c.Env, c.Mounts[0].FS, "/spread", 30)
	total := 0
	for i, b := range c.Bricks {
		n := b.Posix.FileCount()
		total += n
		if n == 0 {
			t.Errorf("brick %d received no files", i)
		}
	}
	if total != 30 {
		t.Errorf("total files = %d, want 30", total)
	}
}

func TestMultiBrickWithIMCaEndToEnd(t *testing.T) {
	c := New(Options{Clients: 2, Bricks: 2, MCDs: 2, MCDMemBytes: 64 << 20, BlockSize: 2048})
	p := c.Env.ContextTask("t")
	w := c.Mounts[0].FS
	fd, err := blocking(w).Create(p, "/mb/data")
	if err != nil {
		t.Fatal(err)
	}
	payload := blob.Synthetic(5, 0, 16<<10)
	blocking(w).Write(p, fd, 0, payload)

	// The second client reads through its own distribute stack; the
	// data should come from the bank regardless of which brick owns
	// the file.
	r := c.Mounts[1].FS
	rfd, err := blocking(r).Open(p, "/mb/data") // purges the file's blocks (paper §4.3.2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := blocking(r).Read(p, rfd, 0, 16<<10) // miss -> owning brick -> re-push
	if err != nil || !got.Equal(payload) {
		t.Fatalf("cross-brick read wrong: %v", err)
	}
	got, err = blocking(r).Read(p, rfd, 0, 16<<10) // now served by the bank
	if err != nil || !got.Equal(payload) {
		t.Fatalf("second cross-brick read wrong: %v", err)
	}
	st, err := blocking(r).Stat(p, "/mb/data")
	if err != nil || st.Size != 16<<10 {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	c.Env.Run()
	if c.Mounts[1].CMCache.Stats.ReadHits == 0 {
		t.Error("reader's data did not come from the bank")
	}
}

func TestMultiBrickLatencyBenchRuns(t *testing.T) {
	c := New(Options{Clients: 4, Bricks: 2, MCDs: 1, MCDMemBytes: 64 << 20})
	res := workload.Latency(c.Env, c.FSes(), workload.LatencyOptions{
		Dir: "/lat", RecordSizes: []int64{2048}, Records: 16,
	})
	if res.Read[2048] <= 0 || res.Write[2048] <= 0 {
		t.Fatalf("latency result %+v", res)
	}
}

func TestBankStatsAggregates(t *testing.T) {
	c := New(Options{Clients: 1, MCDs: 3, MCDMemBytes: 32 << 20})
	p := c.Env.ContextTask("t")
	fs := c.Mounts[0].FS
	fd, _ := blocking(fs).Create(p, "/bs/f")
	blocking(fs).Write(p, fd, 0, blob.Synthetic(1, 0, 8192))
	blocking(fs).Read(p, fd, 0, 8192)
	c.Env.Run()
	st := c.BankStats()
	if st.CmdSet == 0 || st.CmdGet == 0 {
		t.Errorf("bank stats empty: %+v", st)
	}
}
