package memcache

import (
	"fmt"
	"testing"

	"imca/internal/blob"
	"imca/internal/sim"
)

func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/bench/f%06d:%d", i%1024, int64(i)*2048)
	}
	return keys
}

func TestKetamaInRangeAndDeterministic(t *testing.T) {
	k := NewKetamaSelector()
	for _, key := range sampleKeys(500) {
		got := k.Pick(key, 5)
		if got < 0 || got >= 5 {
			t.Fatalf("Pick(%q) = %d out of range", key, got)
		}
		if k.Pick(key, 5) != got {
			t.Fatalf("Pick not deterministic for %q", key)
		}
	}
}

func TestKetamaSingleServer(t *testing.T) {
	if got := NewKetamaSelector().Pick("x", 1); got != 0 {
		t.Errorf("Pick(n=1) = %d", got)
	}
}

func TestKetamaSpread(t *testing.T) {
	k := NewKetamaSelector()
	counts := make([]int, 4)
	keys := sampleKeys(8000)
	for _, key := range keys {
		counts[k.Pick(key, 4)]++
	}
	for s, c := range counts {
		if c < 1000 || c > 3200 {
			t.Errorf("server %d got %d of %d keys (poor ketama spread)", s, c, len(keys))
		}
	}
}

func TestKetamaStabilityVsModulo(t *testing.T) {
	// Growing the bank 4 -> 5: consistent hashing should move roughly
	// 1/5 of keys; CRC32 modulo moves most of them.
	keys := sampleKeys(4000)
	ketama := MovedKeys(NewKetamaSelector(), keys, 4)
	crc := MovedKeys(CRC32Selector{}, keys, 4)
	if ketama > 0.4 {
		t.Errorf("ketama moved %.0f%% of keys on grow; want ~20%%", 100*ketama)
	}
	if crc < 0.5 {
		t.Errorf("crc32 modulo moved only %.0f%%; expected most keys", 100*crc)
	}
	if ketama >= crc {
		t.Errorf("ketama (%.2f) not more stable than modulo (%.2f)", ketama, crc)
	}
}

func TestKetamaWorksAsBankSelector(t *testing.T) {
	env, cl := simBank(3, 64)
	cl.SetSelector(NewKetamaSelector())
	env.Process("t", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			key := fmt.Sprintf("kk-%d", i)
			if err := bank(cl).Set(p, key, blob.FromString("v")); err != nil {
				t.Fatal(err)
			}
			if _, ok := bank(cl).Get(p, key); !ok {
				t.Fatalf("readback of %s failed", key)
			}
		}
	})
	env.Run()
	for i, s := range cl.Servers() {
		if s.Store().Len() == 0 {
			t.Errorf("mcd%d received no keys under ketama", i)
		}
	}
}
