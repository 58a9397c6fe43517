// Package detmap provides deterministic map iteration for the
// result-producing packages. Go randomizes map iteration order on
// purpose; anywhere that order can reach a result — appending to a
// report, summing floats (addition is not associative), picking a
// representative — the iteration must go through a sorted key slice
// instead. The determinism analyzer (internal/lint) flags raw
// range-over-map in internal/core, golden, eval, and report and points
// here.
package detmap

import (
	"cmp"
	"slices"
)

// Keys returns the keys of m in unspecified order. Useful as input to a
// custom sort; prefer SortedKeys when the key type is ordered.
func Keys[M ~map[K]V, K comparable, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// SortedKeys returns the keys of m in ascending order, giving
// `for _, k := range detmap.SortedKeys(m)` a stable visit order.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := Keys(m)
	slices.Sort(keys)
	return keys
}
