// Failover: the paper's §4.4 resilience claim, live. Writes are always
// persistent at the file server before the MCD bank is updated, so killing
// cache daemons — even the whole bank — never loses data; it only costs
// latency until the bank repopulates.
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"fmt"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/gluster"
)

func main() {
	c := cluster.New(cluster.Options{
		Clients:     1,
		MCDs:        2,
		MCDMemBytes: 64 << 20,
		BlockSize:   2048,
	})
	fs := gluster.Sync{FS: c.Mounts[0].FS}

	t := c.Env.ContextTask("demo")
	fd, err := fs.Create(t, "/critical/ledger")
	if err != nil {
		panic(err)
	}
	payload := blob.Synthetic(99, 0, 64<<10)
	_, _ = fs.Write(t, fd, 0, payload)

	timeRead := func(label string) {
		start := t.Now()
		got, err := fs.Read(t, fd, 0, 64<<10)
		if err != nil || !got.Equal(payload) {
			panic("data lost!")
		}
		fmt.Printf("%-34s %10v  (data intact)\n", label, t.Now().Sub(start))
	}

	timeRead("read, bank healthy (hit):")

	fmt.Println("\n*** killing MCD #0 (half the bank, contents lost) ***")
	c.MCDs[0].Fail()
	timeRead("read, MCD #0 dead:")

	fmt.Println("\n*** killing MCD #1 (entire bank down) ***")
	c.MCDs[1].Fail()
	timeRead("read, whole bank dead:")

	fmt.Println("\n*** restarting both daemons (empty) ***")
	c.MCDs[0].Recover()
	c.MCDs[1].Recover()
	timeRead("read, bank cold (repopulating):")
	timeRead("read, bank warm again:")

	// And a write during a total outage still persists.
	c.MCDs[0].Fail()
	c.MCDs[1].Fail()
	_, _ = fs.Write(t, fd, 64<<10, blob.Synthetic(99, 64<<10, 4096))
	c.MCDs[0].Recover()
	c.MCDs[1].Recover()
	st, _ := fs.Stat(t, "/critical/ledger")
	fmt.Printf("\nwrite during total outage persisted: size now %d bytes\n", st.Size)

	c.Env.Run()

	cm := c.Mounts[0].CMCache
	fmt.Printf("\ntranslator saw %d hits and %d misses; correctness never depended on the bank\n",
		cm.Stats.ReadHits, cm.Stats.ReadMisses)
}
