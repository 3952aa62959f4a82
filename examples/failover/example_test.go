package main

// Example pins the failover walkthrough's output: the latencies of each
// bank state and the final translator counters are deterministic.
func Example() {
	main()
	// Output:
	// read, bank healthy (hit):           648.467µs  (data intact)
	//
	// *** killing MCD #0 (half the bank, contents lost) ***
	// read, MCD #0 dead:                 4.699852ms  (data intact)
	//
	// *** killing MCD #1 (entire bank down) ***
	// read, whole bank dead:             4.216036ms  (data intact)
	//
	// *** restarting both daemons (empty) ***
	// read, bank cold (repopulating):    4.536804ms  (data intact)
	// read, bank warm again:              648.467µs  (data intact)
	//
	// write during total outage persisted: size now 69632 bytes
	//
	// translator saw 2 hits and 3 misses; correctness never depended on the bank
}
