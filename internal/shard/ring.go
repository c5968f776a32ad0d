// Package shard scales the CSM engine past one cluster: a Router owns S
// independent csm.Cluster instances (each with the full coded-execution,
// consensus, batching, and durability stack of the single-cluster
// engine) and routes per-machine command traffic to the shard a
// consistent-hash ring assigns the machine to. Single-shard commands
// route directly to the owning shard's ingress client; commands spanning
// machines on several shards run a two-phase prepare/commit protocol
// with typed abort errors (twophase.go); and a hot machine migrates
// between shards through the coded-state handoff of
// csm.DecodeMachineState / csm.AdoptMachineState (router.go, Rebalance).
//
// Everything is deterministic under a fixed seed: ring placement is a
// pure function of (seed, shards, virtual nodes), per-shard cluster
// seeds derive from the router seed by a fixed mix, and the engines
// underneath keep their bit-identical-for-any-worker-count contract —
// so a seeded sharded run reproduces exactly, and its per-machine final
// states match an unsharded oracle cluster fed the same commands.
package shard

import (
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the per-shard virtual-node count of a router's
// ring. Spreading each shard over many ring points keeps the per-shard
// key load within a few percent of uniform.
const DefaultVirtualNodes = 64

// mix64 is the splitmix64 finalizer: a fixed, seedless bijection used
// as the ring's hash. A deterministic hash (not Go's randomized map
// hash, not a seeded-at-startup sip hash) is what makes placement
// bit-identical across runs and processes.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pointHash positions virtual node v of shard s on the ring.
func pointHash(seed uint64, s, v int) uint64 {
	return mix64(mix64(seed^0xcba1e5) ^ mix64(uint64(s)<<32|uint64(v)))
}

// keyHash positions a machine key on the ring. It does not depend on
// the shard count — the consistent-hashing property (growing the ring
// moves a key only when a new shard's point lands between the key and
// its old successor) needs key positions to be stable across ring
// sizes.
func keyHash(seed uint64, key uint64) uint64 {
	return mix64(mix64(seed^0x3a2d) ^ mix64(key))
}

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash  uint64
	shard int
	vnode int
}

// Ring is a consistent-hash ring over S shards with V virtual nodes
// per shard. Placement is a pure function of (seed, shards, vnodes):
// two rings built from the same parameters are bit-identical, in any
// process, under any GOMAXPROCS.
type Ring struct {
	shards int
	seed   uint64
	points []ringPoint // sorted by (hash, shard, vnode)
}

// NewRing builds the ring. shards and vnodes must be positive.
func NewRing(shards, vnodes int, seed uint64) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: NewRing: need at least one shard, got %d", shards)
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("shard: NewRing: need at least one virtual node per shard, got %d", vnodes)
	}
	points := make([]ringPoint, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			points = append(points, ringPoint{hash: pointHash(seed, s, v), shard: s, vnode: v})
		}
	}
	// Ties (astronomically unlikely, but the ring must be total) break by
	// (shard, vnode), so the sorted order is a pure function of the
	// parameters.
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i], points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.vnode < b.vnode
	})
	return &Ring{shards: shards, seed: seed, points: points}, nil
}

// Shards returns the shard count S.
func (r *Ring) Shards() int { return r.shards }

// Lookup maps an arbitrary key to its shard: the key's successor point
// on the ring (clockwise, wrapping past the top).
func (r *Ring) Lookup(key uint64) int {
	h := keyHash(r.seed, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash > h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Machine maps global machine index m to its shard.
func (r *Ring) Machine(m int) int { return r.Lookup(uint64(m)) }

// Placement returns the shard of every machine in [0, machines).
func (r *Ring) Placement(machines int) []int {
	out := make([]int, machines)
	for m := range out {
		out[m] = r.Machine(m)
	}
	return out
}

// Loads returns how many of the first `machines` machine keys land on
// each shard.
func (r *Ring) Loads(machines int) []int {
	out := make([]int, r.shards)
	for m := 0; m < machines; m++ {
		out[r.Machine(m)]++
	}
	return out
}
