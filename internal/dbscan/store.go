package dbscan

import (
	"errors"
	"fmt"
	"math"

	"protoclust/internal/vecmath"
)

// This file holds the storage side of the Matrix interface: the float32
// quantization contract shared by every backend, sizing helpers with
// overflow guards, the condensed upper-triangle backend, and the
// streaming reads the matrix consumers iterate instead of assuming an
// aliased full row: RowStreamer for whole rows, SuffixStreamer for the
// storage-order passes (DBSCAN, refinement statistics, k-NN, the
// smallest positive distance).

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

// DenseBytes returns the resident size of an n×n DenseMatrix in bytes,
// or ErrMatrixSize when n² elements overflow the representable range.
func DenseBytes(n int) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative n = %d", ErrMatrixSize, n)
	}
	if n != 0 && int64(n) > maxElems/int64(n) {
		return 0, fmt.Errorf("%w: %d points overflow a dense n*n layout", ErrMatrixSize, n)
	}
	return int64(n) * int64(n) * 4, nil
}

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

// RowStreamer is the streaming row access every matrix backend
// provides. StreamRow invokes fn with consecutive spans of row i in
// ascending column order, where vals[o] is Dist(i, lo+o) quantized to
// float32. The spans jointly cover columns [0, n) exactly once,
// including the zero diagonal entry, so consumers see the same values
// in the same order as a j = 0…n−1 Dist loop. Per-row consumers that
// need a whole row (the silhouette) use it; full-matrix passes use the
// storage-order StreamSuffix instead.
// Spans alias internal storage or a reused buffer: consumers must not
// mutate them or retain them past fn's return.
type RowStreamer interface {
	StreamRow(i int, fn func(lo int, vals []float32))
	SuffixStreamer
}

// SuffixStreamer is the storage-order read every matrix backend
// provides. StreamSuffix invokes fn with consecutive spans of row i's
// suffix — columns j > i, in ascending order, as Quantize'd values —
// jointly covering [i+1, n) exactly once; the last row yields nothing.
// Walking i = 0…n−1 therefore visits every unordered pair once, in
// lexicographic (i, j) order, reading the condensed triangle
// front to back instead of gathering each row's prefix with one cache
// miss per element. Spans alias storage or a reused buffer, under the
// same rules as StreamRow.
type SuffixStreamer interface {
	StreamSuffix(i int, fn func(lo int, vals []float32))
}

var (
	_ RowStreamer = (*DenseMatrix)(nil)
	_ RowStreamer = (*CondensedMatrix)(nil)
)

// StreamRow yields the whole dense row as one span.
func (d *DenseMatrix) StreamRow(i int, fn func(lo int, vals []float32)) {
	fn(0, d.Row(i))
}

// StreamSuffix yields the dense row after its diagonal as one span.
func (d *DenseMatrix) StreamSuffix(i int, fn func(lo int, vals []float32)) {
	if i+1 < d.n {
		fn(i+1, d.Row(i)[i+1:])
	}
}

// ResidentBytes returns the matrix's resident storage size.
func (d *DenseMatrix) ResidentBytes() int64 { return int64(d.n) * int64(d.n) * 4 }

// zeroSpan is the shared single-entry diagonal span emitted by
// condensed StreamRow. Consumers must not mutate spans (RowStreamer
// contract), so one read-only instance serves every row.
var zeroSpan = []float32{0}

// CondensedMatrix is a Matrix storing only the strict upper triangle:
// n(n−1)/2 float32 entries, half the resident footprint of DenseMatrix.
// Entry (i, j) with i < j lives at i·(2n−i−1)/2 + (j−i−1), which the
// per-row base table turns into one addition: base[i] + j.
type CondensedMatrix struct {
	n    int
	data []float32
	base []int // base[i] = offset of (i, j) minus j, for rows 0…n−2
}

var _ Matrix = (*CondensedMatrix)(nil)

// NewCondensedMatrix allocates an n-point zero matrix in condensed
// upper-triangle layout, or fails with ErrMatrixSize when the element
// count overflows.
func NewCondensedMatrix(n int) (*CondensedMatrix, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative n = %d", ErrMatrixSize, n)
	}
	b, err := CondensedBytes(n)
	if err != nil {
		return nil, err
	}
	base := make([]int, max(n-1, 0))
	for i := range base {
		base[i] = vecmath.CheckedCondensedOff(i, i+1, n) - i - 1
	}
	return &CondensedMatrix{n: n, data: make([]float32, b/4), base: base}, nil
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

// pairOutOfRange is off's panic value: a pair outside the strict upper
// triangle of an n-point condensed matrix.
type pairOutOfRange struct{ i, j, n int }

func (e pairOutOfRange) Error() string {
	return fmt.Sprintf("dbscan: condensed pair (%d,%d) out of range for n=%d", e.i, e.j, e.n)
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

// condensedChunk bounds the prefix-gather span length: large enough to
// amortize the callback, small enough to stay L1-resident.
const condensedChunk = 256

// StreamRow yields row i as gathered prefix chunks (columns j < i, one
// strided element per preceding row), the shared zero diagonal span,
// and the contiguous suffix (columns j > i) aliasing storage directly.
func (c *CondensedMatrix) StreamRow(i int, fn func(lo int, vals []float32)) {
	if i > 0 {
		buf := make([]float32, min(condensedChunk, i))
		// off(j, i) for consecutive j differs by n−j−2, so the gather
		// walks the column with incremental indexing instead of a
		// multiplication per element.
		o := c.off(0, i)
		for lo := 0; lo < i; lo += condensedChunk {
			hi := min(lo+condensedChunk, i)
			for j := lo; j < hi; j++ {
				buf[j-lo] = c.data[o]
				o += c.n - j - 2
			}
			fn(lo, buf[:hi-lo])
		}
	}
	fn(i, zeroSpan)
	c.StreamSuffix(i, fn)
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
// of a streaming matrix, or +Inf when every pair is identical. It
// replaces materializing the full upper triangle (n(n−1)/2 float64s —
// 10 GB at n = 50k) with a single storage-order pass over the row
// suffixes; the minimum does not depend on the visiting order.
func MinPositiveDist(m interface {
	Matrix
	RowStreamer
}) float64 {
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
