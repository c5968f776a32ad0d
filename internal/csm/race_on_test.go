//go:build race

package csm

// raceHeapSlack is the extra heap bytes an honest round allocates under
// the race detector at TestRoundAllocGuard's shape: about 12 KB while a
// round made 79 allocations, under 1 KB at its 7, and none measured at its
// 4.
const raceHeapSlack = 16_000

// raceBatchAllocSlack and raceSetupAllocSlack are the extra heap
// allocations the race detector adds at TestByzantineBatchAllocGuard's
// shape (about 9 per batch) and at TestByzantineSetupAllocGuard's (about
// 430 per new cluster and first batch).
const (
	raceBatchAllocSlack = 12
	raceSetupAllocSlack = 600
)
