package main

// Example runs the program and checks everything it prints.
func Example() {
	main()
	// Output:
	// network of 30 nodes, µ=1/3 dishonest, ε=0.001 -> J=7 auditors
	//
	// worker=honest          committee=[6 12 14 18 23 24 25 28]
	//   accepted=true validAlerts=0 dismissed=0 queryPairs=0
	//
	// worker=naive-liar      committee=[6 12 14 18 23 24 25 28]
	//   accepted=false validAlerts=8 dismissed=0 queryPairs=8
	//
	// worker=consistent-liar committee=[6 12 14 18 23 24 25 28]
	//   accepted=false validAlerts=8 dismissed=0 queryPairs=24
	//
	// Honest output accepted; both liars rejected — the consistent liar only
	// falls at the leaf of the log K bisection, where one multiplication convicts it.
}
