package detmap

import (
	"slices"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"delta": 4, "alpha": 1, "charlie": 3, "bravo": 2}
	got := SortedKeys(m)
	want := []string{"alpha", "bravo", "charlie", "delta"}
	if !slices.Equal(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
}

func TestSortedKeysStableAcrossCalls(t *testing.T) {
	m := map[int]string{}
	for i := 0; i < 100; i++ {
		m[i*7%101] = "x"
	}
	first := SortedKeys(m)
	for i := 0; i < 10; i++ {
		if got := SortedKeys(m); !slices.Equal(got, first) {
			t.Fatalf("call %d: order changed: %v vs %v", i, got, first)
		}
	}
	if !slices.IsSorted(first) {
		t.Fatalf("keys not sorted: %v", first)
	}
}

func TestKeysCoversMap(t *testing.T) {
	m := map[string]int{"a": 1, "b": 2}
	keys := Keys(m)
	if len(keys) != len(m) {
		t.Fatalf("Keys returned %d keys for %d entries", len(keys), len(m))
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			t.Fatalf("Keys returned %q, not in map", k)
		}
	}
}

func TestEmptyMap(t *testing.T) {
	if got := SortedKeys(map[string]int{}); len(got) != 0 {
		t.Fatalf("SortedKeys(empty) = %v", got)
	}
}
