// Statpoll: the paper's motivating producer/consumer pattern (§4.2). A
// producer appends records to a shared file; consumers poll the file's
// modification time with stat instead of using locks, and read the new
// data when mtime advances. With IMCa, the polling storm is absorbed by
// the MCD bank instead of hammering the file server.
//
// Run with:
//
//	go run ./examples/statpoll
package main

import (
	"fmt"
	"time"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/sim"
)

const (
	consumers  = 8
	records    = 20
	recordSize = 4096
	pollEvery  = 500 * time.Microsecond
)

func main() {
	c := cluster.New(cluster.Options{
		Clients:     1 + consumers,
		MCDs:        2,
		MCDMemBytes: 64 << 20,
	})

	producer := gluster.Sync{FS: c.Mounts[0].FS}
	done := false

	c.Env.Process("producer", func(p *sim.Proc) {
		fd, err := producer.Create(p, "/feed/log")
		if err != nil {
			panic(err)
		}
		for i := 0; i < records; i++ {
			p.Sleep(2 * time.Millisecond) // produce at ~500 records/s
			off := int64(i) * recordSize
			if _, err := producer.Write(p, fd, off, blob.Synthetic(1, off, recordSize)); err != nil {
				panic(err)
			}
		}
		done = true
	})

	consumed := make([]int, consumers)
	for ci := 0; ci < consumers; ci++ {
		ci := ci
		fs := gluster.Sync{FS: c.Mounts[1+ci].FS}
		c.Env.Process(fmt.Sprintf("consumer%d", ci), func(p *sim.Proc) {
			// Wait for the file to appear.
			var fd gluster.FD
			for {
				var err error
				if fd, err = fs.Open(p, "/feed/log"); err == nil {
					break
				}
				p.Sleep(pollEvery)
			}
			var lastSize int64
			for !done || consumed[ci] < records {
				p.Sleep(pollEvery)
				st, err := fs.Stat(p, "/feed/log") // served by the MCD bank
				if err != nil || st.Size == lastSize {
					continue
				}
				// New data: read just the delta.
				data, err := fs.Read(p, fd, lastSize, st.Size-lastSize)
				if err != nil {
					panic(err)
				}
				consumed[ci] += int(data.Len() / recordSize)
				lastSize = st.Size
			}
		})
	}

	c.Env.Run()

	total := 0
	for _, n := range consumed {
		total += n
	}
	fmt.Printf("producer wrote %d records; %d consumers consumed %d records total\n",
		records, consumers, total)

	var statHits, statMisses uint64
	for _, m := range c.Mounts {
		statHits += m.CMCache.Stats.StatHits
		statMisses += m.CMCache.Stats.StatMisses
	}
	fmt.Printf("stat polls: %d served by the MCD bank, %d reached the server\n",
		statHits, statMisses)
	fmt.Printf("the file server handled only %d stat calls for %d polls\n",
		c.Server.Ops["stat"], statHits+statMisses)
}
