//go:build !race

package csm

// raceHeapSlack, raceBatchAllocSlack and raceSetupAllocSlack are zero
// without the race detector.
const (
	raceHeapSlack       = 0
	raceBatchAllocSlack = 0
	raceSetupAllocSlack = 0
)
