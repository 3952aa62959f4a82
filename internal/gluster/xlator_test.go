package gluster

import (
	"strings"
	"testing"

	"imca/internal/blob"
	"imca/internal/sim"
)

// raRig stacks ReadAhead over a posix xlator and counts child reads by
// interposing a counting wrapper.
type countingFS struct {
	FS
	Reads     int
	ReadBytes int64
}

func (c *countingFS) Read(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	c.Reads++
	c.FS.Read(t, fd, off, size, func(data blob.Blob, err error) {
		c.ReadBytes += data.Len()
		k(data, err)
	})
}

func TestReadAheadServesSequentialFromWindow(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	counter := &countingFS{FS: px}
	ra := NewReadAhead(counter, 64<<10)
	env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(ra).Create(p, "/seq")
		blocking(ra).Write(p, fd, 0, blob.Synthetic(1, 0, 256<<10))
		// Sequential 4K reads.
		counter.Reads = 0
		for off := int64(0); off < 128<<10; off += 4096 {
			data, err := blocking(ra).Read(p, fd, off, 4096)
			if err != nil || !data.Equal(blob.Synthetic(1, off, 4096)) {
				t.Fatalf("read at %d wrong: %v", off, err)
			}
		}
	})
	env.Run()
	// 32 reads; without prefetch the child would see all 32.
	if counter.Reads >= 32 {
		t.Errorf("child saw %d reads; read-ahead absorbed none", counter.Reads)
	}
	if ra.ServedFromRA == 0 {
		t.Error("no bytes served from the window")
	}
}

func TestReadAheadRandomPatternPassesThrough(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	counter := &countingFS{FS: px}
	ra := NewReadAhead(counter, 64<<10)
	env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(ra).Create(p, "/rand")
		blocking(ra).Write(p, fd, 0, blob.Synthetic(2, 0, 256<<10))
		counter.Reads = 0
		counter.ReadBytes = 0
		offs := []int64{100 << 10, 0, 200 << 10, 50 << 10, 150 << 10}
		for _, off := range offs {
			data, err := blocking(ra).Read(p, fd, off, 4096)
			if err != nil || !data.Equal(blob.Synthetic(2, off, 4096)) {
				t.Fatalf("random read at %d wrong", off)
			}
		}
		if counter.Reads != len(offs) {
			t.Errorf("child reads = %d, want %d (no prefetch for random)", counter.Reads, len(offs))
		}
		if counter.ReadBytes != int64(len(offs))*4096 {
			t.Errorf("child read %d bytes, want exactly the requests", counter.ReadBytes)
		}
	})
	env.Run()
}

func TestReadAheadWriteInvalidatesWindow(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	ra := NewReadAhead(px, 64<<10)
	env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(ra).Create(p, "/wi")
		blocking(ra).Write(p, fd, 0, blob.Synthetic(3, 0, 128<<10))
		// Arm the prefetcher and load a window.
		blocking(ra).Read(p, fd, 0, 4096)
		blocking(ra).Read(p, fd, 4096, 4096)
		blocking(ra).Read(p, fd, 8192, 4096)
		// Overwrite inside the window, then re-read: must see new data.
		blocking(ra).Write(p, fd, 12<<10, blob.FromString("fresh!"))
		got, _ := blocking(ra).Read(p, fd, 12<<10, 6)
		if string(got.Bytes()) != "fresh!" {
			t.Errorf("stale window served %q after overlapping write", got.Bytes())
		}
	})
	env.Run()
}

func TestReadAheadEOFWindow(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	ra := NewReadAhead(px, 64<<10)
	env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(ra).Create(p, "/short")
		blocking(ra).Write(p, fd, 0, blob.Synthetic(4, 0, 10<<10))
		// Sequential reads walking past EOF.
		var got int64
		for off := int64(0); off < 20<<10; off += 4096 {
			data, err := blocking(ra).Read(p, fd, off, 4096)
			if err != nil {
				t.Fatal(err)
			}
			got += data.Len()
		}
		if got != 10<<10 {
			t.Errorf("total read %d, want file size %d", got, 10<<10)
		}
	})
	env.Run()
}

func TestWriteBehindAggregatesSequentialWrites(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	counter := &countingWriteFS{FS: px}
	wb := NewWriteBehind(counter, 64<<10)
	env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(wb).Create(p, "/agg")
		for i := int64(0); i < 32; i++ {
			blocking(wb).Write(p, fd, i*2048, blob.Synthetic(1, i*2048, 2048))
		}
		blocking(wb).Close(p, fd) // flush remainder
	})
	env.Run()
	if counter.Writes >= 32 {
		t.Errorf("child saw %d writes for 32 sequential 2K writes; aggregation failed", counter.Writes)
	}
	if wb.AggregatedBytes != 32*2048 {
		t.Errorf("aggregated %d bytes, want %d", wb.AggregatedBytes, 32*2048)
	}
}

type countingWriteFS struct {
	FS
	Writes int
}

func (c *countingWriteFS) Write(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	c.Writes++
	c.FS.Write(t, fd, off, data, k)
}

func TestWriteBehindReadSeesOwnWrites(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	wb := NewWriteBehind(px, 1<<20)
	env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(wb).Create(p, "/own")
		blocking(wb).Write(p, fd, 0, blob.FromString("buffered"))
		got, err := blocking(wb).Read(p, fd, 0, 8)
		if err != nil || string(got.Bytes()) != "buffered" {
			t.Errorf("read after buffered write = %q, %v", got.Bytes(), err)
		}
	})
	env.Run()
}

func TestWriteBehindStatSeesFlushedSize(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	wb := NewWriteBehind(px, 1<<20)
	env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(wb).Create(p, "/sz")
		blocking(wb).Write(p, fd, 0, blob.Synthetic(1, 0, 3000))
		st, err := blocking(wb).Stat(p, "/sz")
		if err != nil || st.Size != 3000 {
			t.Errorf("stat size = %d, %v; want 3000", st.Size, err)
		}
	})
	env.Run()
}

func TestWriteBehindNonContiguousFlushes(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	counter := &countingWriteFS{FS: px}
	wb := NewWriteBehind(counter, 1<<20)
	env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(wb).Create(p, "/nc")
		blocking(wb).Write(p, fd, 0, blob.FromString("aaaa"))
		blocking(wb).Write(p, fd, 100, blob.FromString("bbbb")) // gap: flushes first run
		blocking(wb).Close(p, fd)
		got, _ := blocking(px).Read(p, mustOpen(t, p, px, "/nc"), 0, 104)
		b := got.Bytes()
		if string(b[:4]) != "aaaa" || string(b[100:104]) != "bbbb" {
			t.Errorf("content wrong after gap writes: %q ... %q", b[:4], b[100:])
		}
	})
	env.Run()
	if counter.Writes != 2 {
		t.Errorf("child writes = %d, want 2 (one per run)", counter.Writes)
	}
}

func mustOpen(t *testing.T, p *sim.Proc, fs FS, path string) FD {
	t.Helper()
	fd, err := blocking(fs).Open(p, path)
	if err != nil {
		t.Fatal(err)
	}
	return fd
}

func TestWriteBehindReducesNetworkRoundTrips(t *testing.T) {
	// Write-behind's win is fewer protocol round trips: 64 small writes
	// become a handful of large RPCs to the server.
	elapsed := func(useWB bool) sim.Duration {
		v := newTestVolume(t)
		var fs FS = v.client
		if useWB {
			fs = NewWriteBehind(v.client, 32<<10)
		}
		var d sim.Duration
		v.env.Process("t", func(p *sim.Proc) {
			fd, _ := blocking(fs).Create(p, "/lat")
			start := p.Now()
			for i := int64(0); i < 64; i++ {
				blocking(fs).Write(p, fd, i*2048, blob.Synthetic(1, i*2048, 2048))
			}
			blocking(fs).Close(p, fd)
			d = p.Now().Sub(start)
		})
		v.env.Run()
		return d
	}
	direct := elapsed(false)
	buffered := elapsed(true)
	if buffered >= direct*3/4 {
		t.Errorf("write-behind (%v) not substantially faster than direct (%v)", buffered, direct)
	}
}

func TestIOStatsObservesAllOps(t *testing.T) {
	v := newTestVolume(t)
	ios := NewIOStats(v.env, v.client)
	v.env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(ios).Create(p, "/io/f")
		blocking(ios).Write(p, fd, 0, blob.Synthetic(1, 0, 8192))
		blocking(ios).Read(p, fd, 0, 8192)
		blocking(ios).Stat(p, "/io/f")
		blocking(ios).Close(p, fd)
		blocking(ios).Unlink(p, "/io/f")
	})
	v.env.Run()
	for _, op := range []string{"create", "write", "read", "stat", "close", "unlink"} {
		h := ios.Op(op)
		if h == nil || h.Count() != 1 {
			t.Errorf("op %s not observed", op)
			continue
		}
		if h.Mean() <= 0 {
			t.Errorf("op %s mean latency = %v", op, h.Mean())
		}
	}
	if ios.ReadB != 8192 || ios.WriteB != 8192 {
		t.Errorf("bytes = %d/%d", ios.ReadB, ios.WriteB)
	}
	var sb strings.Builder
	ios.Dump(&sb)
	if !strings.Contains(sb.String(), "read") || !strings.Contains(sb.String(), "bytes: read 8192") {
		t.Errorf("dump = %q", sb.String())
	}
}

func TestIOStatsAboveAndBelowACache(t *testing.T) {
	// io-stats above read-ahead sees every application read; below it,
	// only the misses: the difference is what the cache absorbed.
	v := newTestVolume(t)
	below := NewIOStats(v.env, v.client)
	ra := NewReadAhead(below, 64<<10)
	above := NewIOStats(v.env, ra)
	v.env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(above).Create(p, "/io/seq")
		blocking(above).Write(p, fd, 0, blob.Synthetic(1, 0, 128<<10))
		for off := int64(0); off < 128<<10; off += 4096 {
			blocking(above).Read(p, fd, off, 4096)
		}
	})
	v.env.Run()
	appReads := above.Op("read").Count()
	netReads := below.Op("read").Count()
	if appReads != 32 {
		t.Fatalf("app reads = %d", appReads)
	}
	if netReads >= appReads {
		t.Errorf("network reads (%d) not below app reads (%d): cache absorbed nothing", netReads, appReads)
	}
}
