package dissim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
)

// This file preserves the pre-kernel implementations. They are
// the correctness oracle for the optimized paths (differential tests
// compare every matrix entry and k-NN column) and the perf baseline the
// BENCH_*.json trajectory measures speedups against. They are not used
// by the pipeline.

// ComputeReference fills the dissimilarity matrix with the original
// per-row scheduling and the byte-slice reference kernel
// (canberra.DissimilarityPenalty), storing each pair through the
// condensed matrix's per-pair Set. Row i carries n−i−1 pairs, so late
// rows are nearly free while early rows dominate — the imbalance
// ComputeMatrixContext's tiles remove.
func ComputeReference(pool *Pool, penalty float64) (*Matrix, error) {
	n := pool.Size()
	if n == 0 {
		return nil, ErrEmptyPool
	}
	if n > MaxUniqueSegments {
		return nil, fmt.Errorf("%w: %d unique segments (max %d)", ErrPoolTooLarge, n, MaxUniqueSegments)
	}
	m, err := dbscan.NewCondensedMatrix(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPoolTooLarge, err)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	rows := make(chan int, n)
	for i := 0; i < n; i++ {
		rows <- i
	}
	close(rows)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				si := pool.Unique[i].Bytes()
				for j := i + 1; j < n; j++ {
					d, err := canberra.DissimilarityPenalty(si, pool.Unique[j].Bytes(), penalty)
					if err != nil {
						mu.Lock()
						if firstEr == nil {
							firstEr = fmt.Errorf("dissim: pair (%d,%d): %w", i, j, err)
						}
						mu.Unlock()
						return
					}
					m.Set(i, j, d)
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return &Matrix{store: m, backend: BackendCondensed}, nil
}

// KNNTableSort is the original k-NN table construction: one full
// O(n log n) sort per row serves all k in [1, kmax].
func (m *Matrix) KNNTableSort(kmax int) ([][]float64, error) {
	n := m.Len()
	if kmax < 1 || kmax > n-1 {
		return nil, fmt.Errorf("dissim: k = %d out of range [1, %d]", kmax, n-1)
	}
	table := make([][]float64, kmax)
	for k := range table {
		table[k] = make([]float64, n)
	}
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	rows := make(chan int, n)
	for i := 0; i < n; i++ {
		rows <- i
	}
	close(rows)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			row := make([]float64, 0, n-1)
			for i := range rows {
				row = row[:0]
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					row = append(row, m.Dist(i, j))
				}
				slices.Sort(row)
				for k := 0; k < kmax; k++ {
					table[k][i] = row[k]
				}
			}
		}()
	}
	wg.Wait()
	return table, nil
}
