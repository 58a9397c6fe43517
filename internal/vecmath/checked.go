package vecmath

import (
	"fmt"
	"math"
)

// Checked integer arithmetic for the condensed-matrix and tile index
// math. The n(n-1)/2 triangular layouts and row*width+col linear
// indexes silently wrap on overflow, turning an out-of-range pool size
// into a corrupted index instead of an error; these helpers centralize
// the bounds proofs and panic on violation, since every call site's
// inputs are validated sizes for which overflow means a programming
// error, not an input error. The idxoverflow lint analyzer steers
// unchecked call sites here.

// CheckedTriNum returns n*(n-1)/2, the number of strictly-upper-
// triangular pairs of n items, panicking if n is negative or the
// product overflows int.
func CheckedTriNum(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("vecmath: CheckedTriNum of negative n=%d", n))
	}
	if n > 2 && n > math.MaxInt/(n-1) {
		panic(fmt.Sprintf("vecmath: CheckedTriNum overflow at n=%d", n))
	}
	return n * (n - 1) / 2
}

// CheckedMulAdd returns a*b + c, panicking when either the product or
// the sum leaves the int range. It is the checked form of the
// row*width+col linear index.
func CheckedMulAdd(a, b, c int) int {
	if a == -1 && b == math.MinInt || b == -1 && a == math.MinInt {
		panic(fmt.Sprintf("vecmath: CheckedMulAdd product overflow: %d*%d", a, b))
	}
	p := a * b
	if a != 0 && p/a != b {
		panic(fmt.Sprintf("vecmath: CheckedMulAdd product overflow: %d*%d", a, b))
	}
	s := p + c
	if (c > 0 && s < p) || (c < 0 && s > p) {
		panic(fmt.Sprintf("vecmath: CheckedMulAdd sum overflow: %d*%d+%d", a, b, c))
	}
	return s
}

// CheckedCondensedOff returns the offset of pair (i, j) in a condensed
// upper-triangle layout over n items — i*(2n-i-1)/2 + (j-i-1) —
// panicking unless 0 <= i < j < n and the arithmetic stays in range.
func CheckedCondensedOff(i, j, n int) int {
	if i < 0 || j <= i || j >= n {
		panic(fmt.Sprintf("vecmath: CheckedCondensedOff pair (%d,%d) out of range for n=%d", i, j, n))
	}
	// Bounds: the offset is < TriNum(n), which itself must fit.
	total := CheckedTriNum(n)
	off := i*(2*n-i-1)/2 + (j - i - 1)
	if off < 0 || off >= total {
		panic(fmt.Sprintf("vecmath: CheckedCondensedOff overflow for (%d,%d) n=%d", i, j, n))
	}
	return off
}

// CheckedUint32 converts a non-negative int to uint32, panicking when
// the value does not fit.
func CheckedUint32(v int) uint32 {
	if v < 0 || v > math.MaxUint32 {
		panic(fmt.Sprintf("vecmath: CheckedUint32 of out-of-range value %d", v))
	}
	return uint32(v)
}
