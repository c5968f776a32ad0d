package main

// Example runs the program and checks everything it prints.
func Example() {
	main()
	// Output:
	// router: 3 tenants x 3 accounts over 3 shards (N=10, b=1 each, one Byzantine node per shard)
	// ring loads: [1 5 3]
	// rebalanced hot account 0: shard 1 -> shard 0; loads now [2 4 3]
	// cross-shard settlement: account 0 -> account 1 (250), two-phase commit over shards [0 1]
	// streamed 180 resolved futures; moves: [{0 1 0}]
	// all 9 account digests bit-identical to the unsharded oracle run
}
