package main

// Example pins the producer/consumer run's output: the record and stat
// counts are deterministic.
func Example() {
	main()
	// Output:
	// producer wrote 20 records; 8 consumers consumed 160 records total
	// stat polls: 954 served by the MCD bank, 0 reached the server
	// the file server handled only 0 stat calls for 954 polls
}
