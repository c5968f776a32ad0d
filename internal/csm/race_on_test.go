//go:build race

package csm

// raceHeapSlack is the extra heap bytes an honest round allocates under
// the race detector (about 12 KB at TestRoundAllocGuard's shape).
const raceHeapSlack = 16_000
