//go:build race

package csm

// raceHeapSlack is the extra heap bytes an honest round allocates under
// the race detector at TestRoundAllocGuard's shape: about 12 KB while a
// round made 79 allocations, under 1 KB at its 7.
const raceHeapSlack = 16_000
