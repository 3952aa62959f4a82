package gluster

import (
	"fmt"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/sim"
)

// testVolume is a client-server GlusterFS assembly on an IPoIB network.
type testVolume struct {
	env    *sim.Env
	net    *fabric.Network
	posix  *Posix
	server *Server
	client FS // fuse -> protocol-client
}

func newTestVolume(t *testing.T) *testVolume {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode := net.NewNode("server", 8)
	cliNode := net.NewNode("client0", 8)

	arr := disk.NewArray(env, 8, 64<<10, disk.HighPoint2008)
	px := NewPosix(env, PosixConfig{Dev: arr, CacheBytes: 6 << 30})
	srv := NewServer(srvNode, px, DefaultServerConfig)
	cli := NewFuse(cliNode, NewClient(cliNode, srvNode), DefaultFuseConfig)
	return &testVolume{env: env, net: net, posix: px, server: srv, client: cli}
}

func TestProtocolEndToEndReadWrite(t *testing.T) {
	v := newTestVolume(t)
	p := v.env.ContextTask("client")
	fd, err := blocking(v.client).Create(p, "/data/file1")
	if err != nil {
		t.Fatal(err)
	}
	payload := blob.Synthetic(5, 0, 64<<10)
	if _, err := blocking(v.client).Write(p, fd, 0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := blocking(v.client).Read(p, fd, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(payload) {
		t.Error("remote read returned wrong data")
	}
	if err := blocking(v.client).Close(p, fd); err != nil {
		t.Fatal(err)
	}
	v.env.Run()
	if v.server.Ops["create"] != 1 || v.server.Ops["read"] != 1 || v.server.Ops["write"] != 1 {
		t.Errorf("server ops = %v", v.server.Ops)
	}
}

func TestProtocolErrorsCrossTheWire(t *testing.T) {
	v := newTestVolume(t)
	p := v.env.ContextTask("client")
	if _, err := blocking(v.client).Open(p, "/no/such"); err != ErrNotExist {
		t.Errorf("open err = %v, want ErrNotExist", err)
	}
	blocking(v.client).Create(p, "/f")
	if _, err := blocking(v.client).Create(p, "/f"); err != ErrExist {
		t.Errorf("create err = %v, want ErrExist", err)
	}
	if err := blocking(v.client).Close(p, 424242); err != ErrBadFD {
		t.Errorf("close err = %v, want ErrBadFD", err)
	}
	v.env.Run()
}

func TestProtocolStatAndReaddir(t *testing.T) {
	v := newTestVolume(t)
	p := v.env.ContextTask("client")
	fd, _ := blocking(v.client).Create(p, "/d/file")
	blocking(v.client).Write(p, fd, 0, blob.Synthetic(1, 0, 1000))
	st, err := blocking(v.client).Stat(p, "/d/file")
	if err != nil || st.Size != 1000 {
		t.Errorf("stat = %+v, %v", st, err)
	}
	names, err := blocking(v.client).Readdir(p, "/d")
	if err != nil || len(names) != 1 || names[0] != "file" {
		t.Errorf("readdir = %v, %v", names, err)
	}
	if err := blocking(v.client).Unlink(p, "/d/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := blocking(v.client).Stat(p, "/d/file"); err != ErrNotExist {
		t.Errorf("stat after unlink = %v", err)
	}
	v.env.Run()
}

func TestProtocolOpTakesNetworkTime(t *testing.T) {
	v := newTestVolume(t)
	var statTime sim.Duration
	p := v.env.ContextTask("client")
	blocking(v.client).Create(p, "/f")
	start := p.Now()
	blocking(v.client).Stat(p, "/f")
	statTime = p.Now().Sub(start)
	v.env.Run()
	if statTime < 2*fabric.IPoIB.Latency {
		t.Errorf("remote stat %v under network RTT", statTime)
	}
	if statTime > time.Millisecond {
		t.Errorf("remote stat %v implausibly slow (cached metadata)", statTime)
	}
}

func TestProtocolIOThreadsThrottleConcurrency(t *testing.T) {
	// With one IO thread, two slow (disk) reads serialize at the daemon.
	mk := func(threads int) sim.Duration {
		env := sim.NewEnv()
		net := fabric.NewNetwork(env, fabric.IPoIB)
		srvNode := net.NewNode("server", 8)
		dev := disk.New(env, disk.Params{SeekTime: 10 * time.Millisecond, TransferRate: 100e6})
		px := NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
		NewServer(srvNode, px, ServerConfig{IOThreads: threads, OpCPU: time.Microsecond, PerByteCPUNanos: 0.1})

		// Create two far-apart files, then drop the cache.
		setup := net.NewNode("setup", 8)
		setupCli := NewClient(setup, srvNode)
		var fds []FD
		p := env.ContextTask("setup")
		for i := 0; i < 2; i++ {
			fd, _ := blocking(setupCli).Create(p, fmt.Sprintf("/f%d", i))
			blocking(setupCli).Write(p, fd, 0, blob.Synthetic(uint64(i+1), 0, 1<<20))
			fds = append(fds, fd)
		}
		env.Run()
		px.Cache().Clear()

		done := sim.NewBarrier(env, 2)
		var finish sim.Time
		for i := 0; i < 2; i++ {
			node := net.NewNode(fmt.Sprintf("c%d", i), 8)
			cli := NewClient(node, srvNode)
			i := i
			env.StartTask("reader", func(tk *sim.Task) {
				cli.Read(tk, fds[i], 0, 1<<20, func(blob.Blob, error) {
					if tk.Now() > finish {
						finish = tk.Now()
					}
					done.Wait(tk, tk.End)
				})
			})
		}
		env.Run()
		return sim.Duration(finish)
	}
	one := mk(1)
	two := mk(2)
	if one <= two {
		t.Errorf("1 io-thread (%v) not slower than 2 (%v)", one, two)
	}
}

func TestDistributeSpreadsFilesAcrossBricks(t *testing.T) {
	env := sim.NewEnv()
	mk := func() *Posix {
		dev := disk.New(env, disk.Params{SeekTime: time.Millisecond, TransferRate: 100e6})
		return NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
	}
	b1, b2 := mk(), mk()
	dht := NewDistribute(b1, b2)
	p := env.ContextTask("t")
	for i := 0; i < 40; i++ {
		path := fmt.Sprintf("/spread/file-%d", i)
		fd, err := blocking(dht).Create(p, path)
		if err != nil {
			t.Fatal(err)
		}
		blocking(dht).Write(p, fd, 0, blob.FromString("x"))
		blocking(dht).Close(p, fd)
	}
	env.Run()
	if b1.FileCount() == 0 || b2.FileCount() == 0 {
		t.Errorf("files not spread: %d/%d", b1.FileCount(), b2.FileCount())
	}
	if b1.FileCount()+b2.FileCount() != 40 {
		t.Errorf("total files = %d, want 40", b1.FileCount()+b2.FileCount())
	}
}

func TestDistributeRoutesFDOps(t *testing.T) {
	env := sim.NewEnv()
	mk := func() *Posix {
		dev := disk.New(env, disk.Params{SeekTime: time.Millisecond, TransferRate: 100e6})
		return NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
	}
	dht := NewDistribute(mk(), mk(), mk())
	p := env.ContextTask("t")
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/r/f%d", i)
		fd, _ := blocking(dht).Create(p, path)
		payload := blob.Synthetic(uint64(i+1), 0, 100)
		blocking(dht).Write(p, fd, 0, payload)
		got, err := blocking(dht).Read(p, fd, 0, 100)
		if err != nil || !got.Equal(payload) {
			t.Fatalf("file %d read mismatch: %v", i, err)
		}
		// Reopen by path and re-read.
		blocking(dht).Close(p, fd)
		fd2, err := blocking(dht).Open(p, path)
		if err != nil {
			t.Fatal(err)
		}
		got, _ = blocking(dht).Read(p, fd2, 0, 100)
		if !got.Equal(payload) {
			t.Fatalf("file %d reopen read mismatch", i)
		}
		blocking(dht).Close(p, fd2)
	}
	env.Run()
}

func TestDistributeReaddirMerges(t *testing.T) {
	env := sim.NewEnv()
	mk := func() *Posix {
		dev := disk.New(env, disk.Params{SeekTime: time.Millisecond, TransferRate: 100e6})
		return NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
	}
	dht := NewDistribute(mk(), mk())
	p := env.ContextTask("t")
	blocking(dht).Mkdir(p, "/m")
	for i := 0; i < 10; i++ {
		fd, _ := blocking(dht).Create(p, fmt.Sprintf("/m/f%d", i))
		blocking(dht).Close(p, fd)
	}
	names, err := blocking(dht).Readdir(p, "/m")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 10 {
		t.Errorf("readdir merged %d names, want 10: %v", len(names), names)
	}
	env.Run()
}

func TestFuseAddsClientCPUCost(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode := net.NewNode("server", 8)
	cliNode := net.NewNode("client", 8)
	dev := disk.New(env, disk.Params{SeekTime: time.Millisecond, TransferRate: 100e6})
	px := NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
	NewServer(srvNode, px, DefaultServerConfig)
	raw := NewClient(cliNode, srvNode)
	fused := NewFuse(cliNode, raw, DefaultFuseConfig)

	var rawTime, fusedTime sim.Duration
	p := env.ContextTask("t")
	fd, _ := blocking(raw).Create(p, "/f")
	blocking(raw).Write(p, fd, 0, blob.Synthetic(1, 0, 4096))
	start := p.Now()
	blocking(raw).Stat(p, "/f")
	rawTime = p.Now().Sub(start)
	start = p.Now()
	blocking(fused).Stat(p, "/f")
	fusedTime = p.Now().Sub(start)
	env.Run()
	if fusedTime <= rawTime {
		t.Errorf("fuse stat (%v) not slower than raw (%v)", fusedTime, rawTime)
	}
}
