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
