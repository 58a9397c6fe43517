package eval

import (
	"context"
	"testing"

	"protoclust/internal/core"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim"
	"protoclust/internal/protocols"
	"protoclust/internal/segment/nemesys"
)

// BenchmarkSilhouette scores a pipeline clustering of a NEMESYS pool
// (generated 1,000-message trace, seed 41, deduplicated) the way the
// sweep does: on the condensed awdl matrix with ε pinned at 0.13, and
// on the tiled dns matrix at a 1 MiB budget with auto-configured ε.
func BenchmarkSilhouette(b *testing.B) {
	cases := []struct {
		name, proto string
		p           core.Params
	}{
		{"condensed/awdl-1000", "awdl", core.Params{FixedEpsilon: 0.13}},
		{"tiled/dns-1000", "dns", core.Params{MatrixBackend: "tiled", MemoryBudget: 1 << 20}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m, labels := pipelineLabels(b, c.proto, c.p)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				Silhouette(m, labels)
			}
		})
	}
}

// pipelineLabels clusters the NEMESYS pool of a generated trace with
// the pipeline under the given overrides of core.DefaultParams and
// returns the pool's matrix, closed at cleanup, with its labels.
func pipelineLabels(b *testing.B, proto string, over core.Params) (*dissim.Matrix, []int) {
	b.Helper()
	ctx := context.Background()
	tr, err := protocols.Generate(proto, 1000, 41)
	if err != nil {
		b.Fatal(err)
	}
	segs, err := (&nemesys.Segmenter{}).Segment(ctx, tr.Deduplicate())
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	p.FixedEpsilon = over.FixedEpsilon
	p.MatrixBackend = over.MatrixBackend
	p.MemoryBudget = over.MemoryBudget
	pool, m, err := core.BuildMatrix(ctx, segs, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := m.Close(); err != nil {
			b.Error(err)
		}
	})
	res, err := core.ClusterPoolContext(ctx, pool, m, p)
	if err != nil {
		b.Fatal(err)
	}
	labels := make([]int, pool.Size())
	for i := range labels {
		labels[i] = dbscan.Noise
	}
	for _, c := range res.Clusters {
		for _, idx := range c.UniqueIndexes {
			labels[idx] = c.ID
		}
	}
	b.Logf("n = %d, %d clusters", pool.Size(), len(res.Clusters))
	return m, labels
}
