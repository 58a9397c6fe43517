package dissim

import (
	"fmt"
	"math"
	"slices"

	"protoclust/internal/dbscan"
	"protoclust/internal/vecmath"
)

// k-NN selection. Algorithm 1 only ever needs the kmax ≈ ln n smallest
// distances of each row, so a full O(n log n) sort per row
// (KNNTableSort, kept as the baseline) wastes almost all of its work.
// Each row instead keeps a bounded max-heap of size kmax, and one walk
// over the row suffixes (StreamSuffix) feeds every pair (i, j) into the
// heaps of both i and j, reading each row suffix in storage order
// instead of gathering each row's prefix with one cache miss per
// element.
//
// The walk is DBSCAN's banded dbscan.Walk: the rows are cut into bands
// of about equal pair counts, which GOMAXPROCS workers claim from the
// last band to the first. Every worker fills its own set of heaps, one
// per row, and a merge then offers each row's heaps of workers 1, 2, …
// to the first worker's. A row's k smallest off-diagonal values are the
// same multiset in any visiting order and under any split, so the table
// is bit-identical to a per-row scan on every backend and at every
// worker count. The extra memory is one set of heaps per worker that
// claimed a band: n × kmax float32 values and 12 bytes per row.
//
// Each band's rows are walked from the last to the first. The pool is
// sorted by value, so neighbours in pool order tend to be near in
// distance. Walked downward, row j's heap is offered its own suffix
// from column j+1 on, then the rows j−1, j−2, … above it: nearest
// first, so it fills with small values early and most later offers
// fail the root check. Walked upward, column j would be offered rows
// 0, 1, … in roughly falling order, and most offers would push. The
// bands are claimed from the last to the first for the same reason.
//
// The root check reads a float32 mirror of each heap's root that holds
// +Inf while the heap is short of kmax values, so a rejected offer is
// one compare against a contiguous array, and row i's own mirror sits
// in a local while its suffix streams. A short heap therefore turns
// away a +Inf distance, which can only tie or lose to every other
// value: the table fills the slots a row's heap left empty with +Inf.
// The kernels clamp dissimilarities to [0, 1], so neither +Inf nor NaN
// comes from them; the padding keeps the table exact for any value but
// NaN.

// maxHeap is a bounded max-heap laid out in a reusable slice; h[0] is
// the largest of the k smallest values seen so far.
type maxHeap []float32

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
func (h *maxHeap) popMax() float32 {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	(*h).siftDown(0)
	return top
}

// rowHeaps holds one bounded max-heap of capacity k per row, flat:
// row r's heap is vals[r·k : r·k+lens[r]]. top[r] is the root while the
// heap is full and +Inf while it is short, so a value d belongs in the
// heap iff d < top[r]: always while it is short, otherwise only when
// strictly smaller than the root — the rule a per-row scan applies.
type rowHeaps struct {
	k    int
	vals []float32
	lens []int
	top  []float32
}

// push inserts d into row r's heap, evicting the root when it is full,
// and returns the row's new top. The caller has checked d < top[r].
func (h *rowHeaps) push(r int, d float32) float32 {
	l := h.lens[r]
	base := r * h.k // hoisted: r < n and len(vals) = n·k
	if l < h.k {
		h.vals[base+l] = d
		l++
		h.lens[r] = l
		maxHeap(h.vals[base : base+l]).siftUp(l - 1)
		if l < h.k {
			return h.top[r]
		}
	} else {
		h.vals[base] = d
		maxHeap(h.vals[base : base+l]).siftDown(0)
	}
	h.top[r] = h.vals[base]
	return h.top[r]
}

// heap returns row r's heap, aliasing the flat storage.
func (h *rowHeaps) heap(r int) maxHeap {
	base := r * h.k // hoisted, bounded as in push
	return maxHeap(h.vals[base : base+h.lens[r]])
}

// newRowHeaps allocates n empty heaps of capacity k.
func newRowHeaps(n, k int) *rowHeaps {
	h := &rowHeaps{
		k:    k,
		vals: make([]float32, vecmath.CheckedMulAdd(n, k, 0)),
		lens: make([]int, n),
		top:  make([]float32, n),
	}
	for r := range h.top {
		h.top[r] = float32(math.Inf(1))
	}
	return h
}

// nearest returns, for every row, a heap of at most k of its smallest
// off-diagonal values, short only of +Inf ones (see the k-NN selection
// comment above), filled by one banded walk over the row suffixes.
func (m *Matrix) nearest(k int) *rowHeaps {
	n := m.Len()
	w := dbscan.NewWalk(n)
	hs := make([]*rowHeaps, w.Workers())
	w.RunDown(func(worker, lo, hi int) {
		if hs[worker] == nil {
			hs[worker] = newRowHeaps(n, k)
		}
		h := hs[worker]
		var (
			i  int
			ti float32 // h.top[i], kept local while row i streams
		)
		offer := func(lo int, vals []float32) {
			tops := h.top[lo : lo+len(vals)]
			for o, d := range vals {
				if d < ti {
					ti = h.push(i, d)
				}
				if d < tops[o] {
					h.push(lo+o, d)
				}
			}
		}
		for i = hi - 1; i >= lo; i-- {
			ti = h.top[i]
			m.store.StreamSuffix(i, offer)
		}
	})
	// Every band may have gone to workers other than the caller, so the
	// merge target is the first worker that filled heaps.
	hs = slices.DeleteFunc(hs, func(h *rowHeaps) bool { return h == nil })
	h := hs[0]
	for _, o := range hs[1:] {
		for r := range n {
			for _, d := range o.heap(r) {
				if d < h.top[r] {
					h.push(r, d)
				}
			}
		}
	}
	return h
}

func (m *Matrix) checkK(k int) error {
	if n := m.Len(); k < 1 || k > n-1 {
		return fmt.Errorf("dissim: k = %d out of range [1, %d]", k, n-1)
	}
	return nil
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
	// A lazily computed backend defers cancellation to here: the rows
	// it could not compute are zero-filled, so the heaps must not be
	// used once the sticky error is set.
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
		for k := len(hi); k < kmax; k++ {
			table[k][i] = math.Inf(1)
		}
		for k := len(hi) - 1; k >= 0; k-- {
			table[k][i] = float64(hi.popMax())
		}
	}
	return table, nil
}
