// Package mapdet exercises the mapdet analyzer: a bare map range inside an
// encode-path function is nondeterministic; collect-then-sort and annotated
// keeps are quiet.
package mapdet

import (
	"fmt"
	"slices"
	"sort"
)

// EncodeCounts emits in randomized map order — the bug mapdet exists for.
func EncodeCounts(m map[string]int) []byte {
	var out []byte
	for k, v := range m { // want "map iteration in deterministic path EncodeCounts"
		out = append(out, fmt.Sprintf("%s=%d;", k, v)...)
	}
	return out
}

// EncodeSorted is the blessed idiom: collect keys, sort, then emit.
func EncodeSorted(m map[string]int) []byte {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%d;", k, m[k])...)
	}
	return out
}

// EncodeSlicesSorted is the same idiom through package slices; a slices call
// that does not sort leaves the range flagged.
func EncodeSlicesSorted(m map[string]int) []byte {
	var keys, again []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for k := range m { // want "map iteration in deterministic path EncodeSlicesSorted"
		again = append(again, k)
	}
	return []byte(fmt.Sprint(keys, slices.Clone(again)))
}

// EncodeSize only aggregates an order-insensitive total; the keep waives it.
func EncodeSize(m map[string]int) int {
	n := 0
	//grapevet:keep fixture: the sum is order-insensitive, nothing is emitted
	for k := range m {
		n += len(k)
	}
	return n
}

// tally is outside mapdet's scope prefixes: map order is anyone's business.
func tally(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

var _ = tally
