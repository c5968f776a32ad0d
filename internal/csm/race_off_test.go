//go:build !race

package csm

// raceHeapSlack is zero without the race detector.
const raceHeapSlack = 0
