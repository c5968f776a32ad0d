package main

// Example runs the program and checks everything it prints.
func Example() {
	main()
	// Output:
	// 2-bit saturating counters as degree-<=3 polynomials over GF(2^16), node 5 Byzantine
	// round 0: correct=true saturated=[0 0] (plain Boolean run agrees: states [1 0])
	// round 1: correct=true saturated=[0 0] (plain Boolean run agrees: states [2 1])
	// round 2: correct=true saturated=[1 0] (plain Boolean run agrees: states [3 1])
	// round 3: correct=true saturated=[1 0] (plain Boolean run agrees: states [3 2])
	// round 4: correct=true saturated=[1 0] (plain Boolean run agrees: states [3 2])
}
