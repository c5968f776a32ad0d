package main

// Example runs the program and checks everything it prints.
func Example() {
	main()
	// Output:
	// rounds 0-1: healthy cluster, node 9 lying — corrected
	// rounds 2-3: node 4 crashed (an erasure: 1 parity symbol, where an error costs 2) — still correct
	// rounds 4-5: node 4 repaired from surviving shares and rejoined — still correct
	//   repair cost: 6595 field ops ≈ 26.2 node-rounds of work (no K-state re-download)
	//
	// dynamic adversary: b=3 corruptions re-targeted every 2 rounds across 4 epochs — all rounds correct
	//
	// repair cost series (one crashed node re-provisioned mid-run):
	// N   K   b  REPAIR OPS  ROUND OPS/NODE  FULL-DECODE OPS  CORRECT
	// 12  10  1  4550        208             4750             true
	// 16  12  2  3919        1373            7480             true
	// 24  18  3  8004        2675            15210            true
}
