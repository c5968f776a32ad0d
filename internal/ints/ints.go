// Package ints holds small integer-set helpers shared by the coding layers
// (lcc's faulty-node sets, csm's client-phase audit sets). It is also the
// blessed way to iterate a map deterministically: csmlint's detmap check
// forbids raw map ranges in the protocol packages, and these helpers are
// the compliant replacement.
package ints

import "slices"

// SortedKeys returns the keys of a set in ascending order.
func SortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// SortedMapKeys returns the keys of any int-keyed map in ascending
// order, for deterministic iteration regardless of the value type.
func SortedMapKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// UnionSorted adds every element of add to the ascending, duplicate-free
// set and returns it, still ascending and duplicate-free. set's backing
// array is reused when it has room; add may be in any order. When add is
// ascending and already in set, the steady case of a faulty-node union,
// one walk of both returns set untouched.
func UnionSorted(set, add []int) []int {
	i := 0
	for j, v := range add {
		for i < len(set) && set[i] < v {
			i++
		}
		if i == len(set) || set[i] != v || j > 0 && v < add[j-1] {
			set = slices.Grow(set, len(add)-j)
			for _, v := range add[j:] {
				if i, found := slices.BinarySearch(set, v); !found {
					set = slices.Insert(set, i, v)
				}
			}
			return set
		}
	}
	return set
}
