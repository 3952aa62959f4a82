package core

import (
	"testing"

	"imca/internal/blob"
	"imca/internal/sim"
)

// The paper's §4.4: "Failures in MCDs do not impact correctness. Writes
// are always persistent in IMCa and are written successfully to the
// server filesystem before updating the MCDs. Irrespective of node
// failures in the MCDs, correctness is not impacted."

func TestMCDFailureDoesNotLoseData(t *testing.T) {
	r := newRig(t, 2, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		fd, _ := blocking(r.client).Create(p, "/ha/file")
		payload := blob.Synthetic(7, 0, 32<<10)
		if _, err := blocking(r.client).Write(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		// Kill the whole bank after the data is cached.
		for _, m := range r.mcds {
			m.Fail()
		}
		got, err := blocking(r.client).Read(p, fd, 0, 32<<10)
		if err != nil || !got.Equal(payload) {
			t.Fatalf("read with dead bank wrong: %v", err)
		}
		st, err := blocking(r.client).Stat(p, "/ha/file")
		if err != nil || st.Size != 32<<10 {
			t.Fatalf("stat with dead bank: %+v, %v", st, err)
		}
	})
	if r.cmcache.Stats.ReadMisses == 0 {
		t.Error("dead bank should have produced read misses (served by the server)")
	}
}

func TestMCDFailureDuringWritesIsInvisible(t *testing.T) {
	// Writes while the bank is down still persist; the cache update is
	// silently dropped.
	r := newRig(t, 1, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		fd, _ := blocking(r.client).Create(p, "/ha/w")
		r.mcds[0].Fail()
		payload := blob.Synthetic(3, 0, 8192)
		if _, err := blocking(r.client).Write(p, fd, 0, payload); err != nil {
			t.Fatalf("write with dead bank: %v", err)
		}
		got, err := blocking(r.client).Read(p, fd, 0, 8192)
		if err != nil || !got.Equal(payload) {
			t.Fatal("data written during outage lost")
		}
	})
}

func TestMCDRecoveryRepopulatesOnAccess(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		fd, _ := blocking(r.client).Create(p, "/ha/r")
		payload := blob.Synthetic(5, 0, 4096)
		blocking(r.client).Write(p, fd, 0, payload)
		r.mcds[0].Fail()
		blocking(r.client).Read(p, fd, 0, 4096) // served by the server; push dropped
		r.mcds[0].Recover()
		if r.mcds[0].Store().Len() != 0 {
			t.Fatal("restarted daemon should be empty")
		}
		blocking(r.client).Read(p, fd, 0, 4096) // miss -> server -> re-push
		got, err := blocking(r.client).Read(p, fd, 0, 4096)
		if err != nil || !got.Equal(payload) {
			t.Fatal("post-recovery read wrong")
		}
	})
	if r.mcds[0].Store().Len() == 0 {
		t.Error("bank not repopulated after recovery")
	}
	if r.cmcache.Stats.ReadHits == 0 {
		t.Error("no hit after repopulation")
	}
}

func TestPartialBankFailureOnlyDegradesSomeKeys(t *testing.T) {
	// With 4 MCDs and one dead, keys on the survivors keep hitting.
	r := newRig(t, 4, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		fd, _ := blocking(r.client).Create(p, "/ha/p")
		blocking(r.client).Write(p, fd, 0, blob.Synthetic(9, 0, 64<<10))
		r.mcds[0].Fail()
		// Read every block individually; some hit, some miss, all correct.
		for off := int64(0); off < 64<<10; off += 2048 {
			got, err := blocking(r.client).Read(p, fd, off, 2048)
			if err != nil || !got.Equal(blob.Synthetic(9, off, 2048)) {
				t.Fatalf("block at %d wrong after partial failure: %v", off, err)
			}
		}
	})
	if r.cmcache.Stats.ReadHits == 0 {
		t.Error("no hits at all — survivors should still serve their keys")
	}
	if r.cmcache.Stats.ReadMisses == 0 {
		t.Error("no misses at all — dead daemon's keys should have missed")
	}
}

func TestFailedMCDStillCostsARoundTrip(t *testing.T) {
	// Detecting a dead daemon is not free: the connection attempt costs a
	// wire round trip, making cold misses even more expensive (the
	// paper's §4.4 cost asymmetry, exaggerated).
	r := newRig(t, 1, Config{BlockSize: 2048})
	var healthy, dead sim.Duration
	r.run(t, func(p *sim.Proc) {
		fd, _ := blocking(r.client).Create(p, "/ha/t")
		blocking(r.client).Write(p, fd, 0, blob.Synthetic(1, 0, 2048))
		start := p.Now()
		blocking(r.client).Read(p, fd, 0, 2048)
		healthy = p.Now().Sub(start)

		r.mcds[0].Fail()
		start = p.Now()
		blocking(r.client).Read(p, fd, 0, 2048)
		dead = p.Now().Sub(start)
	})
	if dead <= healthy {
		t.Errorf("read with dead bank (%v) should cost more than a healthy hit (%v)", dead, healthy)
	}
}
