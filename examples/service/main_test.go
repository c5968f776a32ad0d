package main

// Example runs the program and checks everything it prints.
func Example() {
	main()
	// Output:
	// 12 tellers × 5 deposits to 4 accounts on 16 nodes (2 Byzantine), Dolev-Strong consensus
	//
	// submissions resolved: 60/60
	// rounds executed:      15 (60 command slots, 0 filled by the identity pad)
	//
	// final balances (initial + every teller's deposits, decoded under faults):
	//   account 0:   2680  OK
	//   account 1:   5180  OK
	//   account 2:   7680  OK
	//   account 3:  10180  OK
}
