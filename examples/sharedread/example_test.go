package main

// Example pins the shared-read comparison's output: both configurations
// report deterministic virtual-time latencies.
func Example() {
	main()
	// Output:
	// 16 readers, one shared file, 128 x 4096B records
	//
	// GlusterFS (NoCache)       431.4 µs/read
	// IMCa (1 MCD)              225.2 µs/read
	//
	// intermediate cache cuts shared-read latency by 48%
}
