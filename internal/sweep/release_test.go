package sweep

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoclust"
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

// TestSpillFilesReleased: neither an analysis nor a sweep leaves a
// tiled matrix's spill file open once it returns. Three tiled
// AnalyzeContext runs share one spill directory and a tiled sweep uses
// another; no descriptor may point into either afterwards. The 1 MiB budget holds a
// fifth of the pool's 5.4 MB triangle, so tiles are evicted and spilled;
// a 64 KiB budget would do the same at 6.5 s instead of 0.4 s per
// analysis.
func TestSpillFilesReleased(t *testing.T) {
	dir := t.TempDir()
	if n := openFilesUnder(t, dir); n != 0 {
		t.Fatalf("%d open files under a fresh directory", n)
	}
	tr := ntpTrace(t, 300)
	o := truthOptions()
	o.Params.MatrixBackend = dissim.BackendTiled
	o.Params.MemoryBudget = 1 << 20
	o.Params.MatrixSpillDir = dir
	for i := 0; i < 3; i++ {
		if _, err := protoclust.AnalyzeContext(context.Background(), tr, o); err != nil {
			t.Fatalf("AnalyzeContext %d: %v", i, err)
		}
	}
	if n := openFilesUnder(t, dir); n != 0 {
		t.Errorf("after three analyses: %d open files under the spill dir, want 0", n)
	}

	dir = t.TempDir()
	o.Params.MatrixSpillDir = dir
	_, err := Run(context.Background(), tr, Options{
		Grid:     Grid{Segmenters: []string{protoclust.SegmenterTruth}, EpsSources: []EpsSource{{Mode: EpsKnee}, {Mode: EpsQuantile, Quantile: 0.5}}},
		Base:     o,
		Ensemble: true,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if n := openFilesUnder(t, dir); n != 0 {
		t.Errorf("after a sweep: %d open files under the spill dir, want 0", n)
	}
}

// TestMatrixStorageReleased: neither an analysis nor a sweep leaves a
// condensed matrix's storage (a mapping outside the Go heap on the
// mapping build) allocated once it returns.
func TestMatrixStorageReleased(t *testing.T) {
	if b := dissim.OpenCondensedBytes(); b != 0 {
		t.Fatalf("earlier tests left %d condensed bytes allocated", b)
	}
	tr := ntpTrace(t, 300)
	o := truthOptions()
	if _, err := protoclust.AnalyzeContext(context.Background(), tr, o); err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	if b := dissim.OpenCondensedBytes(); b != 0 {
		t.Errorf("after an analysis: %d condensed bytes still allocated, want 0", b)
	}

	_, err := Run(context.Background(), tr, Options{
		Grid:     Grid{Segmenters: []string{protoclust.SegmenterTruth}, EpsSources: []EpsSource{{Mode: EpsKnee}, {Mode: EpsQuantile, Quantile: 0.5}}},
		Base:     o,
		Ensemble: true,
		MatrixBuilt: func(string) {
			if dissim.OpenCondensedBytes() == 0 {
				t.Error("a sweep group's matrix holds no condensed storage")
			}
		},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if b := dissim.OpenCondensedBytes(); b != 0 {
		t.Errorf("after a sweep: %d condensed bytes still allocated, want 0", b)
	}
}
