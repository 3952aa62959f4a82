package disk

import (
	"testing"
	"time"

	"imca/internal/sim"
)

func TestSequentialAccessPaysOneSeek(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, Params{SeekTime: 10 * time.Millisecond, TransferRate: 100e6})
	p := env.ContextTask("t")
	access(p, d, 0, 1e6, false)
	access(p, d, 1e6, 1e6, false) // continues previous: no seek
	env.Run()
	if d.Seeks != 1 {
		t.Errorf("Seeks = %d, want 1", d.Seeks)
	}
	// 10ms seek + 2 * 10ms transfer
	want := sim.Time(30 * time.Millisecond)
	if got := env.Now(); got != want {
		t.Errorf("elapsed %v, want %v", got, want)
	}
}

func TestRandomAccessPaysSeekEachTime(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, Params{SeekTime: 5 * time.Millisecond, TransferRate: 100e6})
	p := env.ContextTask("t")
	for i := 0; i < 4; i++ {
		access(p, d, int64(i)*1e9, 4096, false) // far apart
	}
	env.Run()
	if d.Seeks != 4 {
		t.Errorf("Seeks = %d, want 4", d.Seeks)
	}
}

func TestInterleavedStreamsDegrade(t *testing.T) {
	// Two streams reading sequential but distinct regions through one
	// disk force a seek per access; aggregate throughput collapses versus
	// a single stream.
	mk := func(streams int) sim.Duration {
		env := sim.NewEnv()
		d := New(env, HighPoint2008)
		const per = 32
		for s := 0; s < streams; s++ {
			base := int64(s) * 1e10
			env.StartTask("s", func(tk *sim.Task) {
				var next func(i int64)
				next = func(i int64) {
					if i == per {
						tk.End()
						return
					}
					d.Access(tk, base+i*1e6, 1e6, false, func() { next(i + 1) })
				}
				next(0)
			})
		}
		return sim.Duration(env.Run())
	}
	one := mk(1)
	two := mk(2)
	// Two streams move twice the data; if seeks dominated nothing, time
	// would only double. Require clearly worse than 2x.
	if two < one*5/2 {
		t.Errorf("interleaving: 1 stream %v, 2 streams %v; expected >2.5x degradation", one, two)
	}
}

func TestDiskArmSerializes(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, Params{SeekTime: time.Millisecond, TransferRate: 1e9})
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		env.StartTask("t", func(tk *sim.Task) {
			d.Access(tk, int64(i)*1e8, 1e6, false, func() {
				finish = append(finish, tk.Now())
				tk.End()
			})
		})
	}
	env.Run()
	if finish[0] == finish[1] || finish[1] == finish[2] {
		t.Errorf("concurrent accesses did not serialize: %v", finish)
	}
}

func TestWriteAccounting(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, HighPoint2008)
	p := env.ContextTask("t")
	access(p, d, 0, 1000, true)
	access(p, d, 1000, 500, false)
	env.Run()
	if d.Writes != 1 || d.BytesWritten != 1000 {
		t.Errorf("writes=%d bytes=%d, want 1/1000", d.Writes, d.BytesWritten)
	}
	if d.Reads != 1 || d.BytesRead != 500 {
		t.Errorf("reads=%d bytes=%d, want 1/500", d.Reads, d.BytesRead)
	}
}

func TestArrayMapRequestSplitsAtStripes(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, 4, 64<<10, HighPoint2008)
	chunks := a.mapRequest(60<<10, 16<<10) // crosses the 64K boundary
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(chunks))
	}
	if chunks[0].size != 4<<10 || chunks[1].size != 12<<10 {
		t.Errorf("chunk sizes %d,%d want 4K,12K", chunks[0].size, chunks[1].size)
	}
	if chunks[0].disk != a.disks[0] || chunks[1].disk != a.disks[1] {
		t.Error("chunks mapped to wrong members")
	}
}

func TestArrayMapRequestRoundRobins(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, 2, 1024, HighPoint2008)
	chunks := a.mapRequest(0, 4096)
	want := []int{0, 1, 0, 1}
	for i, c := range chunks {
		if c.disk != a.disks[want[i]] {
			t.Errorf("chunk %d on wrong disk", i)
		}
	}
	// Member addresses advance every full rotation.
	if chunks[2].addr != 1024 || chunks[3].addr != 1024 {
		t.Errorf("member addresses %d,%d want 1024,1024", chunks[2].addr, chunks[3].addr)
	}
}

func TestArrayParallelSpeedup(t *testing.T) {
	// A large sequential read from an 8-disk array should be close to 8x
	// faster than from one disk.
	elapsed := func(n int) sim.Duration {
		env := sim.NewEnv()
		a := NewArray(env, n, 64<<10, Params{SeekTime: time.Millisecond, TransferRate: 100e6})
		p := env.ContextTask("t")
		access(p, a, 0, 64<<20, false)
		return sim.Duration(env.Run())
	}
	one := elapsed(1)
	eight := elapsed(8)
	ratio := float64(one) / float64(eight)
	if ratio < 6 || ratio > 9 {
		t.Errorf("8-disk speedup = %.1fx, want ~8x (1 disk %v, 8 disks %v)", ratio, one, eight)
	}
}

func TestArraySmallRequestSingleDisk(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, 8, 64<<10, HighPoint2008)
	p := env.ContextTask("t")
	access(p, a, 0, 4096, false)
	env.Run()
	if a.disks[0].Reads != 1 {
		t.Errorf("disk0 reads = %d, want 1", a.disks[0].Reads)
	}
	for i := 1; i < 8; i++ {
		if a.disks[i].Reads != 0 {
			t.Errorf("disk%d touched for a sub-stripe request", i)
		}
	}
}

func TestArrayCoalescesSequentialChunks(t *testing.T) {
	// A 1MB request over 2 disks with a 64K stripe yields 8 contiguous
	// 64K chunks per disk -> coalesced to 1 access (1 seek) per disk.
	env := sim.NewEnv()
	a := NewArray(env, 2, 64<<10, Params{SeekTime: time.Millisecond, TransferRate: 100e6})
	p := env.ContextTask("t")
	access(p, a, 0, 1<<20, false)
	env.Run()
	for i, d := range a.disks {
		if d.Seeks != 1 {
			t.Errorf("disk%d seeks = %d, want 1 (coalesced)", i, d.Seeks)
		}
	}
}

func TestZeroSizeAccessIsFree(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, 2, 1024, HighPoint2008)
	p := env.ContextTask("t")
	access(p, a, 0, 0, false)
	if p.Now() != 0 {
		t.Error("zero-size access advanced time")
	}
	env.Run()
}

// access drives one device access from a test script.
func access(p *sim.Task, dev Device, addr, size int64, write bool) {
	sim.Await(p, func(t *sim.Task, done func()) { dev.Access(t, addr, size, write, done) })
}
