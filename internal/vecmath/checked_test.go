package vecmath

import (
	"math"
	"testing"
)

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestCheckedTriNum(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 3}, {4, 6}, {64, 2016}, {1 << 20, (1 << 20) * (1<<20 - 1) / 2},
	}
	for _, tc := range cases {
		if got := CheckedTriNum(tc.n); got != tc.want {
			t.Errorf("CheckedTriNum(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// n*(n-1) fits an int64 up to n ≈ 2^31.5: 2^31 is fine, 2^32 wraps.
	if got, want := CheckedTriNum(1<<31), (1<<31)*((1<<31)-1)/2; got != want {
		t.Errorf("CheckedTriNum(2^31) = %d, want %d", got, want)
	}
	mustPanic(t, "negative n", func() { CheckedTriNum(-1) })
	mustPanic(t, "overflowing n", func() { CheckedTriNum(math.MaxInt) })
	mustPanic(t, "overflowing n (sqrt boundary)", func() { CheckedTriNum(1 << 32) })
}

func TestCheckedMulAdd(t *testing.T) {
	cases := []struct{ a, b, c, want int }{
		{0, 0, 0, 0},
		{3, 4, 5, 17},
		{-3, 4, 5, -7},
		{7, 0, -2, -2},
		{1 << 30, 1 << 30, 1, 1<<60 + 1},
		{math.MaxInt, 1, 0, math.MaxInt},
		{math.MinInt, 1, 0, math.MinInt},
	}
	for _, tc := range cases {
		if got := CheckedMulAdd(tc.a, tc.b, tc.c); got != tc.want {
			t.Errorf("CheckedMulAdd(%d, %d, %d) = %d, want %d", tc.a, tc.b, tc.c, got, tc.want)
		}
	}
	mustPanic(t, "product overflow", func() { CheckedMulAdd(1<<32, 1<<32, 0) })
	mustPanic(t, "MinInt * -1", func() { CheckedMulAdd(math.MinInt, -1, 0) })
	mustPanic(t, "-1 * MinInt", func() { CheckedMulAdd(-1, math.MinInt, 0) })
	mustPanic(t, "positive sum overflow", func() { CheckedMulAdd(math.MaxInt, 1, 1) })
	mustPanic(t, "negative sum overflow", func() { CheckedMulAdd(math.MinInt, 1, -1) })
}

func TestCheckedCondensedOff(t *testing.T) {
	// The condensed layout enumerates pairs (i, j), i < j, row-major:
	// offsets must be dense, ordered, and match the closed form.
	n := 7
	want := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if got := CheckedCondensedOff(i, j, n); got != want {
				t.Fatalf("CheckedCondensedOff(%d, %d, %d) = %d, want %d", i, j, n, got, want)
			}
			want++
		}
	}
	if want != CheckedTriNum(n) {
		t.Fatalf("enumerated %d pairs, want %d", want, CheckedTriNum(n))
	}
	mustPanic(t, "i negative", func() { CheckedCondensedOff(-1, 2, 5) })
	mustPanic(t, "diagonal", func() { CheckedCondensedOff(2, 2, 5) })
	mustPanic(t, "i > j", func() { CheckedCondensedOff(3, 1, 5) })
	mustPanic(t, "j out of range", func() { CheckedCondensedOff(1, 5, 5) })
}

func TestCheckedNarrowing(t *testing.T) {
	if got := CheckedUint32(0); got != 0 {
		t.Errorf("CheckedUint32(0) = %d", got)
	}
	if got := CheckedUint32(math.MaxUint32); got != math.MaxUint32 {
		t.Errorf("CheckedUint32(MaxUint32) = %d", got)
	}
	mustPanic(t, "uint32 negative", func() { CheckedUint32(-1) })
	mustPanic(t, "uint32 too large", func() { CheckedUint32(math.MaxUint32 + 1) })
}
