package main

// Example pins the quickstart's output: every figure it prints is virtual
// time or a deterministic counter, so the run is byte-identical.
func Example() {
	main()
	// Output:
	// write 64KB:            13.379561ms
	// read 64KB (cache hit): 621.778µs
	// stat (cache hit):      117.705µs  -> size=65536 mtime=18.183489ms
	//
	// client translator: 1/1 reads served from cache, 1/1 stats
	// server saw 0 reads and 0 stats (everything else was absorbed by the MCD bank)
	// MCD bank: 33 items, 33 gets (33 hits), 34 sets
}
