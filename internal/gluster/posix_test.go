package gluster

import (
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/sim"
)

// newPosix builds a posix xlator on a single modeled disk with the given
// cache size.
func newPosix(env *sim.Env, cacheBytes int64) *Posix {
	dev := disk.New(env, disk.Params{SeekTime: 5 * time.Millisecond, TransferRate: 100e6})
	return NewPosix(env, PosixConfig{Dev: dev, CacheBytes: cacheBytes})
}

// blocking is the Sync facade over fs, for sequential test scripts.
func blocking(fs FS) Sync { return Sync{FS: fs} }

// runScript runs fn as a host-side test script and completes the
// simulation.
func runScript(t *testing.T, env *sim.Env, fn func(p *sim.Task)) {
	t.Helper()
	fn(env.ContextTask("test"))
	env.Run()
}

func TestPosixCreateWriteReadBack(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		fd, err := blocking(px).Create(p, "/dir/file")
		if err != nil {
			t.Fatal(err)
		}
		payload := blob.FromString("hello posix")
		n, err := blocking(px).Write(p, fd, 0, payload)
		if err != nil || n != payload.Len() {
			t.Fatalf("write = %d, %v", n, err)
		}
		got, err := blocking(px).Read(p, fd, 0, payload.Len())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(payload) {
			t.Errorf("read back %q, want %q", got.Bytes(), payload.Bytes())
		}
		if err := blocking(px).Close(p, fd); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPosixOpenNonexistent(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		if _, err := blocking(px).Open(p, "/missing"); err != ErrNotExist {
			t.Errorf("err = %v, want ErrNotExist", err)
		}
	})
}

func TestPosixCreateExisting(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		blocking(px).Create(p, "/f")
		if _, err := blocking(px).Create(p, "/f"); err != ErrExist {
			t.Errorf("err = %v, want ErrExist", err)
		}
	})
}

func TestPosixReadPastEOFShortens(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		fd, _ := blocking(px).Create(p, "/f")
		blocking(px).Write(p, fd, 0, blob.FromString("12345"))
		got, err := blocking(px).Read(p, fd, 3, 100)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Bytes()) != "45" {
			t.Errorf("read = %q, want 45", got.Bytes())
		}
		empty, err := blocking(px).Read(p, fd, 5, 10)
		if err != nil || empty.Len() != 0 {
			t.Errorf("read at EOF = %d bytes, %v", empty.Len(), err)
		}
	})
}

func TestPosixHolesReadAsZeros(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		fd, _ := blocking(px).Create(p, "/sparse")
		blocking(px).Write(p, fd, 100, blob.FromString("x"))
		got, _ := blocking(px).Read(p, fd, 0, 101)
		b := got.Bytes()
		for i := 0; i < 100; i++ {
			if b[i] != 0 {
				t.Fatalf("hole byte %d = %x, want 0", i, b[i])
			}
		}
		if b[100] != 'x' {
			t.Error("written byte lost")
		}
	})
}

func TestPosixStatReflectsWrites(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		fd, _ := blocking(px).Create(p, "/f")
		st0, err := blocking(px).Stat(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		sim.Await(p, func(tk *sim.Task, done func()) { tk.Sleep(time.Second, done) })
		blocking(px).Write(p, fd, 0, blob.Synthetic(1, 0, 12345))
		st1, _ := blocking(px).Stat(p, "/f")
		if st1.Size != 12345 {
			t.Errorf("size = %d, want 12345", st1.Size)
		}
		if st1.Mtime <= st0.Mtime {
			t.Error("mtime did not advance after write")
		}
		if st1.Ino != st0.Ino {
			t.Error("ino changed")
		}
	})
}

func TestPosixColdReadHitsDiskWarmDoesNot(t *testing.T) {
	env := sim.NewEnv()
	dev := disk.New(env, disk.Params{SeekTime: 5 * time.Millisecond, TransferRate: 100e6})
	px := NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 64 << 20})
	runScript(t, env, func(p *sim.Task) {
		fd, _ := blocking(px).Create(p, "/f")
		blocking(px).Write(p, fd, 0, blob.Synthetic(1, 0, 1<<20))
		px.Cache().Clear() // cold cache

		start := p.Now()
		blocking(px).Read(p, fd, 0, 1<<20)
		cold := p.Now().Sub(start)

		start = p.Now()
		blocking(px).Read(p, fd, 0, 1<<20)
		warm := p.Now().Sub(start)

		if cold < 5*time.Millisecond {
			t.Errorf("cold read %v did not pay a disk seek", cold)
		}
		if warm != 0 {
			t.Errorf("warm read took %v, want 0 (all pages cached)", warm)
		}
	})
}

func TestPosixCacheEvictionForcesDisk(t *testing.T) {
	env := sim.NewEnv()
	dev := disk.New(env, disk.Params{SeekTime: time.Millisecond, TransferRate: 100e6})
	// Cache holds only 1MB; the file is 4MB.
	px := NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 20})
	runScript(t, env, func(p *sim.Task) {
		fd, _ := blocking(px).Create(p, "/big")
		blocking(px).Write(p, fd, 0, blob.Synthetic(1, 0, 4<<20))
		reads0 := px.DiskReads
		blocking(px).Read(p, fd, 0, 4<<20) // cannot be fully cached
		if px.DiskReads == reads0 {
			t.Error("4MB read through a 1MB cache hit no disk")
		}
	})
}

func TestPosixUnlink(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		fd, _ := blocking(px).Create(p, "/dir/f")
		blocking(px).Write(p, fd, 0, blob.FromString("data"))
		blocking(px).Close(p, fd)
		if err := blocking(px).Unlink(p, "/dir/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := blocking(px).Stat(p, "/dir/f"); err != ErrNotExist {
			t.Errorf("stat after unlink = %v", err)
		}
		if err := blocking(px).Unlink(p, "/dir/f"); err != ErrNotExist {
			t.Errorf("second unlink = %v", err)
		}
		names, _ := blocking(px).Readdir(p, "/dir")
		if len(names) != 0 {
			t.Errorf("dir still lists %v", names)
		}
	})
}

func TestPosixMkdirReaddir(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		blocking(px).Mkdir(p, "/a/b")
		blocking(px).Create(p, "/a/b/one")
		blocking(px).Create(p, "/a/b/two")
		names, err := blocking(px).Readdir(p, "/a/b")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 2 || names[0] != "one" || names[1] != "two" {
			t.Errorf("readdir = %v", names)
		}
		if _, err := blocking(px).Readdir(p, "/a/b/one"); err != ErrNotDir {
			t.Errorf("readdir on file = %v", err)
		}
		st, _ := blocking(px).Stat(p, "/a")
		if !st.IsDir {
			t.Error("/a not a directory")
		}
	})
}

func TestPosixTruncate(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		fd, _ := blocking(px).Create(p, "/f")
		blocking(px).Write(p, fd, 0, blob.FromString("0123456789"))
		blocking(px).Truncate(p, "/f", 4)
		st, _ := blocking(px).Stat(p, "/f")
		if st.Size != 4 {
			t.Errorf("size = %d, want 4", st.Size)
		}
		got, _ := blocking(px).Read(p, fd, 0, 10)
		if string(got.Bytes()) != "0123" {
			t.Errorf("read = %q", got.Bytes())
		}
	})
}

func TestPosixOverlappingWrites(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		fd, _ := blocking(px).Create(p, "/f")
		blocking(px).Write(p, fd, 0, blob.FromString("aaaaaaaaaa"))
		blocking(px).Write(p, fd, 3, blob.FromString("bbb"))
		blocking(px).Write(p, fd, 8, blob.FromString("cccc"))
		got, _ := blocking(px).Read(p, fd, 0, 12)
		if string(got.Bytes()) != "aaabbbaacccc" {
			t.Errorf("read = %q, want aaabbbaacccc", got.Bytes())
		}
		st, _ := blocking(px).Stat(p, "/f")
		if st.Size != 12 {
			t.Errorf("size = %d, want 12", st.Size)
		}
	})
}

func TestPosixSequentialWritesCoalesceExtents(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		fd, _ := blocking(px).Create(p, "/seq")
		for i := int64(0); i < 64; i++ {
			blocking(px).Write(p, fd, i*2048, blob.Synthetic(7, i*2048, 2048))
		}
	})
	in := px.files["/seq"]
	if in.data.extentCount() != 1 {
		t.Errorf("sequential writes left %d extents, want 1", in.data.extentCount())
	}
}

func TestPosixBadFD(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	runScript(t, env, func(p *sim.Task) {
		if _, err := blocking(px).Read(p, 999, 0, 10); err != ErrBadFD {
			t.Errorf("read err = %v", err)
		}
		if _, err := blocking(px).Write(p, 999, 0, blob.FromString("x")); err != ErrBadFD {
			t.Errorf("write err = %v", err)
		}
		if err := blocking(px).Close(p, 999); err != ErrBadFD {
			t.Errorf("close err = %v", err)
		}
	})
}

func TestCleanPaths(t *testing.T) {
	cases := map[string]string{
		"/a/b":   "/a/b",
		"a/b":    "/a/b",
		"/a//b/": "/a/b",
		"/":      "/",
	}
	for in, want := range cases {
		if got := clean(in); got != want {
			t.Errorf("clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExtentMapRandomizedAgainstReference(t *testing.T) {
	// Compare the extent map against a simple byte-array reference under
	// random writes.
	var m extentMap
	ref := make([]byte, 4096)
	rng := newRand(42)
	for op := 0; op < 500; op++ {
		off := int64(rng.next() % 3500)
		l := int64(rng.next()%500) + 1
		seed := rng.next()
		m.write(off, blob.Synthetic(seed, off, l))
		copy(ref[off:off+l], blob.Synthetic(seed, off, l).Bytes())
		// Random probe.
		po := int64(rng.next() % 4000)
		pl := int64(rng.next()%96) + 1
		got := m.read(po, pl).Bytes()
		for i := range got {
			if got[i] != ref[po+int64(i)] {
				t.Fatalf("op %d: mismatch at %d+%d", op, po, i)
			}
		}
	}
}

// newRand is a tiny deterministic generator for table-free randomized tests.
type xorshift struct{ s uint64 }

func newRand(seed uint64) *xorshift { return &xorshift{s: seed} }

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}
