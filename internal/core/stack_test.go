package core

import (
	"testing"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// TestFullTranslatorStackComposition stacks every client translator the
// repository provides — FUSE cost model, write-behind, read-ahead, and
// CMCache — over the protocol client, against a server running SMCache
// over Posix, and checks data integrity under a mixed workload. This is
// the "maximal GlusterFS configuration" the translator architecture is
// supposed to allow.
func TestFullTranslatorStackComposition(t *testing.T) {
	r := newRig(t, 2, Config{BlockSize: 2048})
	// newRig's stack is fuse(cmcache(protocol)); rebuild a taller one on
	// the same deployment: fuse(wb(ra(cmcache(protocol)))).
	node := r.net.Node("client0")
	base := r.cmcache // cmcache(protocol-client), already wired to the rig
	ra := gluster.NewReadAhead(base, 64<<10)
	wb := gluster.NewWriteBehind(ra, 32<<10)
	full := gluster.NewFuse(node, wb, gluster.DefaultFuseConfig)

	ref := &refFile{}
	rng := newRand(2024)
	r.env.Process("stack", func(p *sim.Proc) {
		fd, err := blocking(full).Create(p, "/stack/f")
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 200; op++ {
			if rng.next()%2 == 0 {
				off := int64(rng.next() % 40000)
				size := int64(rng.next()%3000) + 1
				payload := blob.Synthetic(rng.next()|1, off, size)
				if _, err := blocking(full).Write(p, fd, off, payload); err != nil {
					t.Fatalf("op %d write: %v", op, err)
				}
				ref.write(off, payload.Bytes())
			} else {
				off := int64(rng.next() % 45000)
				size := int64(rng.next()%5000) + 1
				got, err := blocking(full).Read(p, fd, off, size)
				if err != nil {
					t.Fatalf("op %d read: %v", op, err)
				}
				want := ref.read(off, size)
				if got.Len() != int64(len(want)) || !got.Equal(blob.FromBytes(want)) {
					t.Fatalf("op %d read [%d,%d): mismatch", op, off, off+size)
				}
			}
		}
		// Close flushes write-behind and purges; a reopen reads back the
		// full reference content.
		if err := blocking(full).Close(p, fd); err != nil {
			t.Fatal(err)
		}
		fd, err = blocking(full).Open(p, "/stack/f")
		if err != nil {
			t.Fatal(err)
		}
		got, err := blocking(full).Read(p, fd, 0, int64(len(ref.data)))
		if err != nil || !got.Equal(blob.FromBytes(ref.data)) {
			t.Fatalf("post-reopen readback mismatch: %v", err)
		}
		st, err := blocking(full).Stat(p, "/stack/f")
		if err != nil || st.Size != int64(len(ref.data)) {
			t.Fatalf("stat = %+v, %v; want size %d", st, err, len(ref.data))
		}
	})
	r.env.Run()
}

// TestStackedStatStaysCoherent checks the stat path through the same tall
// stack: write-behind must flush before stat so sizes are never stale.
func TestStackedStatStaysCoherent(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	node := r.net.Node("client0")
	wb := gluster.NewWriteBehind(r.cmcache, 1<<20) // large buffer: writes linger
	full := gluster.NewFuse(node, wb, gluster.DefaultFuseConfig)
	r.env.Process("t", func(p *sim.Proc) {
		fd, _ := blocking(full).Create(p, "/sc/f")
		blocking(full).Write(p, fd, 0, blob.Synthetic(1, 0, 5000))
		st, err := blocking(full).Stat(p, "/sc/f")
		if err != nil || st.Size != 5000 {
			t.Fatalf("stat through buffered stack = %+v, %v", st, err)
		}
	})
	r.env.Run()
}
