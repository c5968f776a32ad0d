// Booleanlogic: Appendix A end to end. An arbitrary Boolean state machine
// (here: a 2-bit saturating counter with an overflow output) is converted
// into a polynomial over GF(2^16) via the truth-table construction, then
// executed as a CSM cluster on coded states — with a Byzantine node — and
// the decoded bits match the plain Boolean execution exactly.
//
//	go run ./examples/booleanlogic
package main

import (
	"fmt"
	"log"

	"codedsm"
)

// counterFn is the Boolean transition: state is a 2-bit counter, command a
// 1-bit "increment" signal; output is 1 when the counter saturates.
func counterFn(state, cmd uint64) (next, out uint64) {
	if cmd&1 == 1 && state < 3 {
		state++
	}
	if state == 3 {
		out = 1
	}
	return state, out
}

func main() {
	f, err := codedsm.NewGF2m(16) // 2^16 >= N as Appendix A requires
	if err != nil {
		log.Fatal(err)
	}

	// K=2 counters on N=8 nodes tolerating b=1 Byzantine node. The machine
	// has 3 input bits, so its polynomial degree is at most 3 and the
	// capacity bound is K <= (N - 2b - 1)/d + 1.
	const k, n, b = 2, 8, 1
	if maxK := codedsm.SyncMaxMachines(n, b, 3); maxK < k {
		log.Fatalf("capacity %d too small", maxK)
	}
	cluster, err := codedsm.Open(f,
		func(ff codedsm.Field[uint64]) (*codedsm.Transition[uint64], error) {
			return codedsm.NewBooleanMachine(ff, "sat-counter", 2, 1, 1, counterFn)
		},
		codedsm.WithNodes(n), codedsm.WithMachines(k), codedsm.WithFaults(b),
		codedsm.WithByzantineNode(5, codedsm.WrongResult),
		codedsm.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("2-bit saturating counters as degree-<=3 polynomials over GF(2^16), node 5 Byzantine")
	// Counter 0 increments every round; counter 1 every other round.
	plain := []uint64{0, 0} // reference Boolean states
	for r := 0; r < 5; r++ {
		inc0, inc1 := uint64(1), uint64(r%2)
		cmds := [][]uint64{
			codedsm.PackBits(f, inc0, 1),
			codedsm.PackBits(f, inc1, 1),
		}
		res, err := cluster.ExecuteRound(cmds)
		if err != nil {
			log.Fatal(err)
		}
		var decoded [2]uint64
		for i := range decoded {
			bit, err := codedsm.UnpackBits(f, res.Outputs[i])
			if err != nil {
				log.Fatal(err)
			}
			decoded[i] = bit
		}
		plain[0], _ = counterFn(plain[0], inc0)
		plain[1], _ = counterFn(plain[1], inc1)
		fmt.Printf("round %d: correct=%v saturated=[%d %d] (plain Boolean run agrees: states %v)\n",
			r, res.Correct, decoded[0], decoded[1], plain)
	}
}
