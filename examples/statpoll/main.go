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

	// The producer and the consumers run concurrently, so each is a task
	// written in continuation-passing style: every operation takes the
	// rest of the script as its callback.
	producer := c.Mounts[0].FS
	done := false

	c.Env.StartTask("producer", func(t *sim.Task) {
		producer.Create(t, "/feed/log", func(fd gluster.FD, err error) {
			if err != nil {
				panic(err)
			}
			var produce func(i int)
			produce = func(i int) {
				if i == records {
					done = true
					t.End()
					return
				}
				t.Sleep(2*time.Millisecond, func() { // produce at ~500 records/s
					off := int64(i) * recordSize
					producer.Write(t, fd, off, blob.Synthetic(1, off, recordSize), func(_ int64, err error) {
						if err != nil {
							panic(err)
						}
						produce(i + 1)
					})
				})
			}
			produce(0)
		})
	})

	consumed := make([]int, consumers)
	for ci := 0; ci < consumers; ci++ {
		ci := ci
		fs := c.Mounts[1+ci].FS
		c.Env.StartTask(fmt.Sprintf("consumer%d", ci), func(t *sim.Task) {
			var fd gluster.FD
			var lastSize int64
			var poll func()
			poll = func() {
				if done && consumed[ci] >= records {
					t.End()
					return
				}
				t.Sleep(pollEvery, func() {
					fs.Stat(t, "/feed/log", func(st *gluster.Stat, err error) { // served by the MCD bank
						if err != nil || st.Size == lastSize {
							poll()
							return
						}
						// New data: read just the delta.
						size := st.Size
						fs.Read(t, fd, lastSize, size-lastSize, func(data blob.Blob, err error) {
							if err != nil {
								panic(err)
							}
							consumed[ci] += int(data.Len() / recordSize)
							lastSize = size
							poll()
						})
					})
				})
			}
			// Wait for the file to appear.
			var open func()
			open = func() {
				fs.Open(t, "/feed/log", func(f gluster.FD, err error) {
					if err != nil {
						t.Sleep(pollEvery, open)
						return
					}
					fd = f
					poll()
				})
			}
			open()
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
