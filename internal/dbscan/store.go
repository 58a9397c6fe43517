package dbscan

import (
	"errors"
	"fmt"
	"math"

	"protoclust/internal/vecmath"
)

// This file holds the storage side of the Matrix interface: the float32
// quantization contract shared by every backend, sizing helpers with
// overflow guards, and the condensed upper-triangle backend.

// Quantize is the single float32 quantization point of the Matrix
// boundary: every backend stores dissimilarities as float32 (values
// live in [0, 1], where float64 would double the footprint for no
// analytic benefit), and every backend must round-trip through this
// helper so stored distances are bit-identical regardless of layout.
// Dist then returns float64(Quantize(v)) exactly, which is what the
// differential tests compare the float64 oracle against.
func Quantize(v float64) float32 { return float32(v) }

// ErrMatrixSize reports that a requested matrix cannot be represented:
// its element count overflows the host int, or its allocation would
// exceed the caller's memory budget.
var ErrMatrixSize = errors.New("dbscan: matrix too large")

// maxInt is the largest value of the host int type.
const maxInt = int(^uint(0) >> 1)

// maxElems bounds any backend's float32 element count so that both the
// slice length and the byte count (4·elems) fit the host int.
const maxElems = int64(maxInt) / 4

// CondensedBytes returns the resident size of an n-point CondensedMatrix
// in bytes — n(n−1)/2 float32 entries — or ErrMatrixSize on overflow.
func CondensedBytes(n int) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative n = %d", ErrMatrixSize, n)
	}
	if n < 2 {
		return 0, nil
	}
	if int64(n) > (2*maxElems)/int64(n-1) {
		return 0, fmt.Errorf("%w: %d points overflow a condensed upper-triangle layout", ErrMatrixSize, n)
	}
	return int64(vecmath.CheckedTriNum(n)) * 4, nil
}

// CondensedMatrix is a Matrix storing only the strict upper triangle:
// n(n−1)/2 float32 entries, half the footprint of a full n×n layout.
// Entry (i, j) with i < j lives at i·(2n−i−1)/2 + (j−i−1), which the
// per-row base table turns into one addition: base[i] + j.
type CondensedMatrix struct {
	n    int
	data []float32
	base []int // base[i] = offset of (i, j) minus j, for rows 0…n−2
}

// NewCondensedMatrix allocates an n-point zero matrix in condensed
// upper-triangle layout on the Go heap, or fails with ErrMatrixSize
// when the element count overflows.
func NewCondensedMatrix(n int) (*CondensedMatrix, error) {
	b, err := CondensedBytes(n)
	if err != nil {
		return nil, err
	}
	return NewCondensedMatrixOver(n, make([]float32, b/4))
}

// NewCondensedMatrixOver lays an n-point condensed matrix over a
// caller-supplied backing slice of exactly CondensedBytes(n)/4 zeroed
// float32 entries, so the caller decides where the storage lives and
// frees it after Release. It fails with ErrMatrixSize when the element
// count overflows or data has the wrong length.
func NewCondensedMatrixOver(n int, data []float32) (*CondensedMatrix, error) {
	b, err := CondensedBytes(n)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != b/4 {
		return nil, fmt.Errorf("%w: %d-point condensed matrix needs %d entries, backing has %d",
			ErrMatrixSize, n, b/4, len(data))
	}
	base := make([]int, max(n-1, 0))
	for i := range base {
		base[i] = vecmath.CheckedCondensedOff(i, i+1, n) - i - 1
	}
	return &CondensedMatrix{n: n, data: data, base: base}, nil
}

// Release detaches and returns the matrix's backing slice, so its owner
// can free it; a second Release returns nil. Every later read or write
// of the matrix panics on a bounds check instead of touching the
// released storage.
func (c *CondensedMatrix) Release() []float32 {
	data := c.data
	c.data = nil
	return data
}

// Len returns the number of points.
func (c *CondensedMatrix) Len() int { return c.n }

// ResidentBytes returns the matrix's resident storage size.
func (c *CondensedMatrix) ResidentBytes() int64 { return int64(len(c.data)) * 4 }

// off returns the condensed index of (i, j); requires 0 ≤ i < j < n.
// The base table was built through vecmath.CheckedCondensedOff, so
// every in-range pair maps inside data without a division per call,
// and off is small enough to inline into Set and Dist, which the
// matrix fill and the clusterers call once per pair.
func (c *CondensedMatrix) off(i, j int) int {
	// As unsigned values, negative i or j wrap past n: this is
	// 0 ≤ i < j < n in two comparisons.
	if uint(i) >= uint(j) || uint(j) >= uint(c.n) {
		panic(pairOutOfRange{i, j, c.n})
	}
	return c.base[i] + j
}

// pairOutOfRange is the panic value of off and of the span writes: a
// pair outside the strict upper triangle of an n-point matrix.
type pairOutOfRange struct{ i, j, n int }

func (e pairOutOfRange) Error() string {
	return fmt.Sprintf("dbscan: pair (%d,%d) out of range for n=%d", e.i, e.j, e.n)
}

// Dist returns the stored dissimilarity between i and j.
func (c *CondensedMatrix) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return float64(c.data[c.off(i, j)])
}

// Set stores a symmetric dissimilarity between i and j (i ≠ j; the
// diagonal is implicitly zero and a Set on it is ignored).
func (c *CondensedMatrix) Set(i, j int, v float64) {
	if i == j {
		return
	}
	if i > j {
		i, j = j, i
	}
	c.data[c.off(i, j)] = Quantize(v)
}

// SetSpan stores row i's span of the upper triangle: vals[o] becomes
// the dissimilarity of (i, lo+o). The values are stored as given, so
// they must already have passed through Quantize. Requires
// i < lo ≤ lo+len(vals) ≤ n; the condensed layout keeps the span
// contiguous, so the write is one copy. An empty span is a no-op.
func (c *CondensedMatrix) SetSpan(i, lo int, vals []float32) {
	if len(vals) == 0 {
		return
	}
	start := c.off(i, lo)
	c.off(i, lo+len(vals)-1) // bounds the span's end to row i
	copy(c.data[start:start+len(vals)], vals)
}

// StreamSuffix yields row i's suffix as one span aliasing storage: the
// condensed layout stores it contiguously.
func (c *CondensedMatrix) StreamSuffix(i int, fn func(lo int, vals []float32)) {
	if i+1 < c.n {
		start := c.off(i, i+1)
		fn(i+1, c.data[start:start+c.n-i-1])
	}
}

// MinPositiveDist returns the smallest strictly positive dissimilarity
// of m, or +Inf when every pair is identical. It replaces materializing
// the full upper triangle (n(n−1)/2 float64s — 10 GB at n = 50k) with a
// single storage-order pass over the row suffixes; the minimum does not
// depend on the visiting order.
func MinPositiveDist(m Matrix) float64 {
	pos := math.Inf(1)
	n := m.Len()
	for i := 0; i < n; i++ {
		m.StreamSuffix(i, func(lo int, vals []float32) {
			for _, d32 := range vals {
				if d := float64(d32); d > 0 && d < pos {
					pos = d
				}
			}
		})
	}
	return pos
}
