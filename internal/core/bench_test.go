package core

import (
	"context"
	"testing"

	"protoclust/internal/protocols"
	"protoclust/internal/segment/nemesys"
)

// BenchmarkConfigure times Algorithm 1 alone, ConfigureContext's k-NN
// table, ECDFs, spline smoothing and knees, on the condensed matrix of
// the NEMESYS pool of a generated 1,000-message dns trace (seed 41,
// deduplicated), an auto-eps shape.
func BenchmarkConfigure(b *testing.B) {
	ctx := context.Background()
	tr, err := protocols.Generate("dns", 1000, 41)
	if err != nil {
		b.Fatal(err)
	}
	segs, err := (&nemesys.Segmenter{}).Segment(ctx, tr.Deduplicate())
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	pool, m, err := BuildMatrix(ctx, segs, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := m.Close(); err != nil {
			b.Error(err)
		}
	})
	b.Logf("n = %d", pool.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := ConfigureContext(ctx, m, p); err != nil {
			b.Fatal(err)
		}
	}
}
