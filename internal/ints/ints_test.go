package ints

import (
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	for _, tc := range []struct {
		in   map[int]bool
		want []int
	}{
		{nil, []int{}},
		{map[int]bool{}, []int{}},
		{map[int]bool{3: true}, []int{3}},
		{map[int]bool{5: true, 1: true, 9: true, 0: true, -2: true}, []int{-2, 0, 1, 5, 9}},
	} {
		if got := SortedKeys(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SortedKeys(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestUnionSorted(t *testing.T) {
	for _, tc := range []struct {
		set, add, want []int
	}{
		{nil, nil, nil},
		{nil, []int{4, 1, 4}, []int{1, 4}},
		{[]int{2, 6}, []int{6, 0, 9, 3}, []int{0, 2, 3, 6, 9}},
		{[]int{2, 6}, []int{2}, []int{2, 6}},
		{[]int{1, 3, 5, 8}, []int{3, 8}, []int{1, 3, 5, 8}},    // an ascending subset
		{[]int{1, 3, 5, 8}, []int{8, 3, 3}, []int{1, 3, 5, 8}}, // a subset out of order
		{[]int{1, 3, 5, 8}, []int{5, 2}, []int{1, 2, 3, 5, 8}},
		{[]int{1, 3, 5, 8}, []int{3, 9}, []int{1, 3, 5, 8, 9}},
	} {
		if got := UnionSorted(tc.set, tc.add); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("UnionSorted(%v, %v) = %v, want %v", tc.set, tc.add, got, tc.want)
		}
	}
}
