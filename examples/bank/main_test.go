package main

// Example runs the program and checks everything it prints.
func Example() {
	main()
	// Output:
	// 2 banks on 10 untrusted nodes (b=2: one liar, one silent), Dolev-Strong consensus
	//
	// round 0 (consensus+execution took 5 network rounds): correct=true detected=[3]
	//   bank A balance: 5250
	//   bank B balance: 11000
	// round 1 (consensus+execution took 5 network rounds): correct=true detected=[3]
	//   bank A balance: 5175
	//   bank B balance: 14000
	// round 2 (consensus+execution took 5 network rounds): correct=true detected=[3]
	//   bank A balance: 6300
	//   bank B balance: 13500
	// round 3 (consensus+execution took 5 network rounds): correct=true detected=[3]
	//   bank A balance: 6000
	//   bank B balance: 13542
	//
	// independent uncoded ledgers agree: A=6000 B=13542
}
