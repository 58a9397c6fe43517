package dissim

import (
	"fmt"

	"protoclust/internal/vecmath"
)

// k-NN selection. Algorithm 1 only ever needs the kmax ≈ ln n smallest
// distances of each row, so a full O(n log n) sort per row
// (KNNTableSort, kept as the baseline) wastes almost all of its work.
// Each row instead keeps a bounded max-heap of size kmax, and one
// storage-order walk over the row suffixes (StreamSuffix) feeds every
// pair (i, j) into the heaps of both i and j. A row's k smallest
// off-diagonal values are the same multiset in any visiting order, so
// the table is bit-identical to a per-row scan, and the walk reads the
// condensed triangle front to back instead of gathering each row's
// prefix with one cache miss per element.

// maxHeap is a bounded max-heap laid out in a reusable slice; h[0] is
// the largest of the k smallest values seen so far.
type maxHeap []float64

func (h maxHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h maxHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h[l] > h[largest] {
			largest = l
		}
		if r < n && h[r] > h[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// popMax removes and returns the heap's largest element.
func (h *maxHeap) popMax() float64 {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	(*h).siftDown(0)
	return top
}

// rowHeaps holds one bounded max-heap of capacity k per row, flat:
// row r's heap is vals[r·k : r·k+lens[r]]. top[r] mirrors the heap's
// root, so the common case — a value that cannot enter a full heap —
// is rejected from two sequential arrays without touching vals.
type rowHeaps struct {
	k    int
	vals []float64
	lens []int
	top  []float64
}

// offer adds d to row r's heap when it belongs there: always while the
// heap is short of k values, otherwise only when strictly smaller than
// the root — the same rule a per-row scan applied. It inlines into the
// walk, so a rejected value costs two array reads.
func (h *rowHeaps) offer(r int, d float64) {
	if h.lens[r] < h.k || d < h.top[r] {
		h.push(r, d)
	}
}

// push inserts d into row r's heap, evicting the root when it is full.
func (h *rowHeaps) push(r int, d float64) {
	l := h.lens[r]
	base := r * h.k // hoisted: r < n and len(vals) = n·k
	if l < h.k {
		h.vals[base+l] = d
		h.lens[r] = l + 1
		maxHeap(h.vals[base : base+l+1]).siftUp(l)
	} else {
		h.vals[base] = d
		maxHeap(h.vals[base : base+l]).siftDown(0)
	}
	h.top[r] = h.vals[base]
}

// heap returns row r's heap, aliasing the flat storage.
func (h *rowHeaps) heap(r int) maxHeap {
	base := r * h.k // hoisted, bounded as in push
	return maxHeap(h.vals[base : base+h.lens[r]])
}

// newRowHeaps allocates n empty heaps of capacity k.
func newRowHeaps(n, k int) *rowHeaps {
	return &rowHeaps{
		k:    k,
		vals: make([]float64, vecmath.CheckedMulAdd(n, k, 0)),
		lens: make([]int, n),
		top:  make([]float64, n),
	}
}

// nearest returns, for every row, a heap of its k smallest off-diagonal
// values, filled by one sequential walk over the row suffixes.
func (m *Matrix) nearest(k int) *rowHeaps {
	n := m.Len()
	h := newRowHeaps(n, k)
	for i := 0; i < n; i++ {
		m.store.StreamSuffix(i, func(lo int, vals []float32) {
			for o, d32 := range vals {
				d := float64(d32)
				h.offer(i, d)
				h.offer(lo+o, d)
			}
		})
	}
	return h
}

func (m *Matrix) checkK(k int) error {
	if n := m.Len(); k < 1 || k > n-1 {
		return fmt.Errorf("dissim: k = %d out of range [1, %d]", k, n-1)
	}
	return nil
}

// KNNDistances returns, for every unique segment, the dissimilarity to
// its k-th nearest neighbor (k ≥ 1, self excluded). This is the sample
// population for the ECDF Ê_k of Algorithm 1. Only the k-th column is
// materialized — each row's heap root — not the whole table.
func (m *Matrix) KNNDistances(k int) ([]float64, error) {
	if err := m.checkK(k); err != nil {
		return nil, err
	}
	h := m.nearest(k)
	// A lazily computed backend defers cancellation to here: the rows
	// it could not compute are zero-filled, so the heaps must not be
	// used once the sticky error is set.
	if err := m.Err(); err != nil {
		return nil, err
	}
	return h.top, nil
}

// KNNTable returns the k-NN dissimilarities for every k in [1, kmax] at
// once: table[k-1][i] is segment i's distance to its k-th nearest
// neighbor. One walk fills the bounded heaps that serve all k, which is
// what Algorithm 1's loop over k needs.
func (m *Matrix) KNNTable(kmax int) ([][]float64, error) {
	if err := m.checkK(kmax); err != nil {
		return nil, err
	}
	h := m.nearest(kmax)
	if err := m.Err(); err != nil {
		return nil, err
	}
	n := m.Len()
	table := make([][]float64, kmax)
	for k := range table {
		table[k] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		hi := h.heap(i)
		for k := len(hi) - 1; k >= 0; k-- {
			table[k][i] = hi.popMax()
		}
	}
	return table, nil
}
