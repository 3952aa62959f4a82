// Quickstart: deploy a simulated IMCa cluster (GlusterFS + a MemCached
// bank), write a file, and watch reads and stats get served by the cache
// instead of the server.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/sim"
)

func main() {
	// One client, two MCDs with 64 MB each, 2 KB cache blocks — a small
	// IMCa deployment on a virtual InfiniBand (IPoIB) network.
	c := cluster.New(cluster.Options{
		Clients:     1,
		MCDs:        2,
		MCDMemBytes: 64 << 20,
		BlockSize:   2048,
	})
	fs := gluster.Sync{FS: c.Mounts[0].FS}

	c.Env.Process("quickstart", func(p *sim.Proc) {
		fd, err := fs.Create(p, "/demo/hello.dat")
		if err != nil {
			panic(err)
		}

		// Write 64 KB; IMCa forwards writes to the server (persistence),
		// then the server-side translator feeds the blocks to the MCDs.
		payload := blob.Synthetic(42, 0, 64<<10)
		start := p.Now()
		if _, err := fs.Write(p, fd, 0, payload); err != nil {
			panic(err)
		}
		fmt.Printf("write 64KB:            %8v\n", p.Now().Sub(start))

		// This read never reaches the GlusterFS server: every 2 KB block
		// comes from the MCD bank.
		start = p.Now()
		data, err := fs.Read(p, fd, 0, 64<<10)
		if err != nil || !data.Equal(payload) {
			panic("read mismatch")
		}
		fmt.Printf("read 64KB (cache hit): %8v\n", p.Now().Sub(start))

		// Stat is also served from the cache.
		start = p.Now()
		st, err := fs.Stat(p, "/demo/hello.dat")
		if err != nil {
			panic(err)
		}
		fmt.Printf("stat (cache hit):      %8v  -> size=%d mtime=%v\n",
			p.Now().Sub(start), st.Size, st.Mtime)
	})
	c.Env.Run()

	cm := c.Mounts[0].CMCache
	fmt.Printf("\nclient translator: %d/%d reads served from cache, %d/%d stats\n",
		cm.Stats.ReadHits, cm.Stats.ReadHits+cm.Stats.ReadMisses,
		cm.Stats.StatHits, cm.Stats.StatHits+cm.Stats.StatMisses)
	fmt.Printf("server saw %d reads and %d stats (everything else was absorbed by the MCD bank)\n",
		c.Server.Ops["read"], c.Server.Ops["stat"])
	bank := c.BankStats()
	fmt.Printf("MCD bank: %d items, %d gets (%d hits), %d sets\n",
		bank.CurrItems, bank.CmdGet, bank.GetHits, bank.CmdSet)
}
