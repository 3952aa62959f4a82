package lustre

import (
	"fmt"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/sim"
)

func deploy(t *testing.T, osts int) (*sim.Env, *Cluster, []*Client) {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	cl := New(env, net, "lustre", DefaultConfig(osts))
	clients := make([]*Client, 2)
	for i := range clients {
		clients[i] = cl.NewClient(net.NewNode(fmt.Sprintf("lc%d", i), 8))
	}
	return env, cl, clients
}

func TestLustreCreateWriteRead(t *testing.T) {
	env, _, cls := deploy(t, 4)
	p := env.ContextTask("t")
	c := cls[0]
	fd, err := blocking(c).Create(p, "/f")
	if err != nil {
		t.Fatal(err)
	}
	payload := blob.Synthetic(7, 0, 3<<20) // crosses stripes on 4 OSTs
	if _, err := blocking(c).Write(p, fd, 0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := blocking(c).Read(p, fd, 0, 3<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(payload) {
		t.Error("striped read-back mismatch")
	}
	env.Run()
}

func TestLustreStripingUsesAllOSTs(t *testing.T) {
	env, cl, cls := deploy(t, 4)
	p := env.ContextTask("t")
	c := cls[0]
	fd, _ := blocking(c).Create(p, "/striped")
	blocking(c).Write(p, fd, 0, blob.Synthetic(1, 0, 8<<20)) // 8 stripes over 4 OSTs
	env.Run()
	for i, o := range cl.osts {
		if o.store.FileCount() == 0 {
			t.Errorf("OST %d received no object", i)
		}
	}
}

func TestLustreWarmCacheReadIsLocal(t *testing.T) {
	env, _, cls := deploy(t, 1)
	var cold, warm sim.Duration
	p := env.ContextTask("t")
	c := cls[0]
	fd, _ := blocking(c).Create(p, "/w")
	blocking(c).Write(p, fd, 0, blob.Synthetic(1, 0, 1<<20))
	c.DropCaches()

	start := p.Now()
	blocking(c).Read(p, fd, 0, 1<<20)
	cold = p.Now().Sub(start)

	start = p.Now()
	blocking(c).Read(p, fd, 0, 1<<20)
	warm = p.Now().Sub(start)
	env.Run()
	if warm >= cold/10 {
		t.Errorf("warm read %v not ~free vs cold %v", warm, cold)
	}
	if warm == 0 {
		t.Error("warm read should still pay local VFS/copy CPU time")
	}
}

func TestLustreColdCacheFetchesFromOST(t *testing.T) {
	env, _, cls := deploy(t, 1)
	p := env.ContextTask("t")
	c := cls[0]
	fd, _ := blocking(c).Create(p, "/cold")
	blocking(c).Write(p, fd, 0, blob.Synthetic(2, 0, 64<<10))
	c.DropCaches()
	start := p.Now()
	got, err := blocking(c).Read(p, fd, 0, 64<<10)
	if err != nil || got.Len() != 64<<10 {
		t.Fatalf("cold read: %d, %v", got.Len(), err)
	}
	if p.Now().Sub(start) < 2*fabric.IPoIB.Latency {
		t.Error("cold read did not visit the network")
	}
	env.Run()
}

func TestLustreCoherencyWriterInvalidatesReader(t *testing.T) {
	env, cl, cls := deploy(t, 1)
	p := env.ContextTask("t")
	w, r := cls[0], cls[1]
	wfd, _ := blocking(w).Create(p, "/shared")
	blocking(w).Write(p, wfd, 0, blob.FromString("version-one____"))

	rfd, _ := blocking(r).Open(p, "/shared")
	got, _ := blocking(r).Read(p, rfd, 0, 15)
	if string(got.Bytes()) != "version-one____" {
		t.Fatalf("reader saw %q", got.Bytes())
	}
	// Writer updates; reader's cache must be revoked.
	blocking(w).Write(p, wfd, 0, blob.FromString("version-two____"))
	got, _ = blocking(r).Read(p, rfd, 0, 15)
	if string(got.Bytes()) != "version-two____" {
		t.Errorf("reader saw stale %q after write", got.Bytes())
	}
	env.Run()
	if cl.Revocations == 0 {
		t.Error("no lock revocations recorded")
	}
}

func TestLustreStatSeesRemoteWrites(t *testing.T) {
	env, _, cls := deploy(t, 1)
	p := env.ContextTask("t")
	w, r := cls[0], cls[1]
	wfd, _ := blocking(w).Create(p, "/poll")
	st0, _ := blocking(r).Stat(p, "/poll")
	sim.Await(p, func(tk *sim.Task, done func()) { tk.Sleep(time.Second, done) })
	blocking(w).Write(p, wfd, 0, blob.Synthetic(1, 0, 500))
	st1, err := blocking(r).Stat(p, "/poll")
	if err != nil {
		t.Fatal(err)
	}
	if st1.Size != 500 || st1.Mtime <= st0.Mtime {
		t.Errorf("consumer stat stale: %+v vs %+v", st1, st0)
	}
	env.Run()
}

func TestLustreMoreOSTsImproveLargeReadBandwidth(t *testing.T) {
	elapsed := func(osts int) sim.Duration {
		env := sim.NewEnv()
		net := fabric.NewNetwork(env, fabric.IPoIB)
		cfg := DefaultConfig(osts)
		cl := New(env, net, "l", cfg)
		c := cl.NewClient(net.NewNode("c", 8))
		var d sim.Duration
		p := env.ContextTask("t")
		fd, _ := blocking(c).Create(p, "/big")
		blocking(c).Write(p, fd, 0, blob.Synthetic(1, 0, 32<<20))
		c.DropCaches()
		// Also chill the OST caches so the disks matter.
		for _, o := range cl.osts {
			o.store.Cache().Clear()
		}
		start := p.Now()
		blocking(c).Read(p, fd, 0, 32<<20)
		d = p.Now().Sub(start)
		env.Run()
		return d
	}
	one := elapsed(1)
	four := elapsed(4)
	if four >= one {
		t.Errorf("4 OSTs (%v) not faster than 1 OST (%v) for a cold 32MB read", four, one)
	}
}

func TestLustreUnlink(t *testing.T) {
	env, _, cls := deploy(t, 2)
	p := env.ContextTask("t")
	c := cls[0]
	fd, _ := blocking(c).Create(p, "/gone")
	blocking(c).Write(p, fd, 0, blob.FromString("x"))
	if err := blocking(c).Unlink(p, "/gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := blocking(c).Stat(p, "/gone"); err != gluster.ErrNotExist {
		t.Errorf("stat after unlink = %v", err)
	}
	if _, err := blocking(c).Open(p, "/gone"); err != gluster.ErrNotExist {
		t.Errorf("open after unlink = %v", err)
	}
	env.Run()
}

func TestLustreMkdirReaddir(t *testing.T) {
	env, _, cls := deploy(t, 1)
	p := env.ContextTask("t")
	c := cls[0]
	blocking(c).Mkdir(p, "/d")
	blocking(c).Create(p, "/d/a")
	blocking(c).Create(p, "/d/b")
	names, err := blocking(c).Readdir(p, "/d")
	if err != nil || len(names) != 2 {
		t.Errorf("readdir = %v, %v", names, err)
	}
	env.Run()
}

func TestLustreClientCacheBounded(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	cfg := DefaultConfig(1)
	cfg.ClientCacheBytes = 1 << 20 // tiny client cache
	cl := New(env, net, "l", cfg)
	c := cl.NewClient(net.NewNode("c", 8))
	p := env.ContextTask("t")
	fd, _ := blocking(c).Create(p, "/big")
	blocking(c).Write(p, fd, 0, blob.Synthetic(1, 0, 8<<20))
	c.DropCaches()
	blocking(c).Read(p, fd, 0, 8<<20)
	// Re-read: most pages were evicted, so misses must dominate.
	c.CacheHits, c.CacheMisses = 0, 0
	blocking(c).Read(p, fd, 0, 8<<20)
	env.Run()
	if c.cache.used > 1<<20 {
		t.Errorf("client cache used %d > bound", c.cache.used)
	}
	if c.CacheMisses == 0 {
		t.Error("re-read of an 8MB file through a 1MB cache had no misses")
	}
}

func TestLustreTruncate(t *testing.T) {
	env, _, cls := deploy(t, 1)
	p := env.ContextTask("t")
	c := cls[0]
	fd, _ := blocking(c).Create(p, "/t")
	blocking(c).Write(p, fd, 0, blob.Synthetic(1, 0, 1000))
	blocking(c).Truncate(p, "/t", 100)
	st, _ := blocking(c).Stat(p, "/t")
	if st.Size != 100 {
		t.Errorf("size after truncate = %d", st.Size)
	}
	env.Run()
}
