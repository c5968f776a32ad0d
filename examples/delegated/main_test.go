package main

// Example runs the program and checks everything it prints.
func Example() {
	main()
	// Output:
	// 8 machines on 24 nodes, 5 Byzantine, 3 rounds
	//
	// decentralized (every node decodes):      291563 field ops total
	// delegated (worker + audit committee):     52812 field ops total
	//
	// delegation cut total coding work 5.5x — the Section 6.2 throughput
	// mechanism, with every worker step verified and liars still corrected.
}
