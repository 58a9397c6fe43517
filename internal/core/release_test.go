package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoclust/internal/dissim"
)

// openFilesUnder counts this process's open file descriptors that point
// into dir. A tiled matrix's spill file is unlinked at creation, so an
// unreleased one reads "<dir>/tiles-*.bin (deleted)". The test is
// skipped where /proc/self/fd does not exist.
func openFilesUnder(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		// A descriptor closed since ReadDir has no link; it is not open.
		if link, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
			strings.HasPrefix(link, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestClusterSegmentsClosesMatrix: ClusterSegmentsContext owns the
// matrix it builds, so a tiled matrix's spill file is released when it
// returns — after a clustering and after a clustering error alike.
func TestClusterSegmentsClosesMatrix(t *testing.T) {
	segs, _ := synthSegments(40, 1)
	dir := t.TempDir()
	p := DefaultParams()
	p.MatrixBackend = dissim.BackendTiled
	p.MemoryBudget = 64 << 10
	p.MatrixSpillDir = dir
	if _, err := ClusterSegmentsContext(context.Background(), segs, p, nil); err != nil {
		t.Fatalf("ClusterSegmentsContext: %v", err)
	}
	if n := openFilesUnder(t, dir); n != 0 {
		t.Errorf("after a clustering: %d open files under the spill dir, want 0", n)
	}

	p.FixedK = 1 << 20
	if _, err := ClusterSegmentsContext(context.Background(), segs, p, nil); !errors.Is(err, ErrKOutOfRange) {
		t.Fatalf("err = %v, want ErrKOutOfRange", err)
	}
	if n := openFilesUnder(t, dir); n != 0 {
		t.Errorf("after a clustering error: %d open files under the spill dir, want 0", n)
	}
}

// TestMatrixStorageReleased: the condensed matrix ClusterSegmentsContext
// builds (outside the Go heap on the mapping build) is freed when it
// returns, after a clustering and after a clustering error alike. A
// wrapping builder records that the storage was open during the run.
func TestMatrixStorageReleased(t *testing.T) {
	if b := dissim.OpenCondensedBytes(); b != 0 {
		t.Fatalf("earlier tests left %d condensed bytes allocated", b)
	}
	segs, _ := synthSegments(40, 1)
	var open int64
	record := func(ctx context.Context, pool *dissim.Pool, cfg dissim.Config) (*dissim.Matrix, error) {
		m, err := dissim.ComputeMatrixContext(ctx, pool, cfg)
		open = dissim.OpenCondensedBytes()
		return m, err
	}
	p := DefaultParams()
	if _, err := ClusterSegmentsContext(context.Background(), segs, p, record); err != nil {
		t.Fatalf("ClusterSegmentsContext: %v", err)
	}
	if open == 0 {
		t.Fatal("no condensed storage was allocated during the clustering")
	}
	if b := dissim.OpenCondensedBytes(); b != 0 {
		t.Errorf("after a clustering: %d condensed bytes still allocated, want 0", b)
	}

	p.FixedK = 1 << 20
	if _, err := ClusterSegmentsContext(context.Background(), segs, p, nil); !errors.Is(err, ErrKOutOfRange) {
		t.Fatalf("err = %v, want ErrKOutOfRange", err)
	}
	if b := dissim.OpenCondensedBytes(); b != 0 {
		t.Errorf("after a clustering error: %d condensed bytes still allocated, want 0", b)
	}
}
