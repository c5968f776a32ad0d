package main

// Example runs the program and checks everything it prints.
func Example() {
	main()
	// Output:
	// partial replication (q=4 per shard), adversary corrupts 3 nodes of shard 1:
	//   round correct = false  <- shard 1's clients accepted a forged balance!
	//
	// CSM, same 3 corrupted nodes (no group to capture — every node holds a coded mix):
	//   round correct = true, liars identified = [4 5 6]
	//
	// random re-allocation of shards: static adversary captures a shard in 3.0% of epochs,
	// a dynamic (post-facto) adversary in 100.0% — CSM needs 7 corruptions either way.
}
