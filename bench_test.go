// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md §4). Each benchmark reports the experiment's
// quality statistics as custom metrics (P, R, F¼, coverage) alongside
// the usual time/op, so `go test -bench=.` reproduces the numbers of
// EXPERIMENTS.md.
//
// The heavyweight rows (1000-message traces) run once per benchmark
// invocation; expect several minutes for the full suite.
package protoclust_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"protoclust"
	"protoclust/internal/canberra"
	"protoclust/internal/core"
	"protoclust/internal/dissim"
	"protoclust/internal/eval"
	"protoclust/internal/experiments"
	"protoclust/internal/protocols"
	"protoclust/internal/report"
	"protoclust/internal/segment"
)

// E1 — Table I: pseudo data type clustering from ground-truth segments,
// one sub-benchmark per protocol trace.
func BenchmarkTableI(b *testing.B) {
	for _, spec := range protocols.PaperTraces() {
		spec := spec
		b.Run(spec.String(), func(b *testing.B) {
			var row experiments.Table1Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = experiments.Table1Row1(context.Background(), spec.Protocol, spec.Messages)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Precision, "P")
			b.ReportMetric(row.Recall, "R")
			b.ReportMetric(row.FScore, "F")
			b.ReportMetric(row.Epsilon, "eps")
		})
	}
}

// E2 — Table II: clustering on heuristic segments, one sub-benchmark
// per segmenter × protocol trace. Failing runs (budget exceeded, the
// paper's "fails" cells) report all-zero metrics.
func BenchmarkTableII(b *testing.B) {
	for _, seg := range experiments.Segmenters() {
		seg := seg
		b.Run(seg.Name(), func(b *testing.B) {
			for _, spec := range protocols.PaperTraces() {
				spec := spec
				b.Run(spec.String(), func(b *testing.B) {
					var row experiments.Table2Row
					for i := 0; i < b.N; i++ {
						var err error
						row, err = experiments.Table2Row1(context.Background(), spec.Protocol, spec.Messages, seg)
						if err != nil {
							b.Fatal(err)
						}
					}
					if row.Failed {
						b.ReportMetric(1, "fails")
						return
					}
					b.ReportMetric(row.Precision, "P")
					b.ReportMetric(row.Recall, "R")
					b.ReportMetric(row.FScore, "F")
					b.ReportMetric(row.Coverage, "cov")
				})
			}
		})
	}
}

// E3 — Figure 2: the ε auto-configuration ECDF, spline, and knee for
// NTP-1000.
func BenchmarkFigure2(b *testing.B) {
	var data *experiments.Figure2Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = experiments.Figure2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(data.KneeX, "knee")
	b.ReportMetric(data.Epsilon, "eps")
	b.ReportMetric(float64(data.K), "k")
}

// E4 — Figure 3: NEMESYS boundary errors inside NTP timestamps.
func BenchmarkFigure3(b *testing.B) {
	var examples []experiments.Figure3Example
	for i := 0; i < b.N; i++ {
		var err error
		examples, err = experiments.Figure3(context.Background(), 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := report.WriteFigure3(io.Discard, examples); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(examples)), "examples")
}

// E5 — Section IV-D: byte coverage of clustering vs. FieldHunter.
func BenchmarkCoverageComparison(b *testing.B) {
	var rows []experiments.CoverageRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.CoverageComparison(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	cAvg, fAvg := experiments.Averages(rows)
	b.ReportMetric(cAvg, "cov-clustering")
	b.ReportMetric(fAvg, "cov-fieldhunter")
	if fAvg > 0 {
		b.ReportMetric(cAvg/fAvg, "factor")
	}
}

// ablationTrace prepares a deduplicated ground-truth segment pool for
// the ablation benchmarks.
func ablationTrace(b *testing.B, proto string, n int) []protoclust.Segment {
	b.Helper()
	tr, err := protocols.Generate(proto, n, experiments.Seed)
	if err != nil {
		b.Fatal(err)
	}
	segs, err := segment.GroundTruth{}.Segment(context.Background(), tr.Deduplicate())
	if err != nil {
		b.Fatal(err)
	}
	return segs
}

// A1 — ablation: cluster refinement (merge + split) on versus off.
func BenchmarkAblationRefinement(b *testing.B) {
	segs := ablationTrace(b, "dns", 1000)
	for _, disabled := range []bool{false, true} {
		disabled := disabled
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var m eval.Metrics
			for i := 0; i < b.N; i++ {
				p := core.DefaultParams()
				p.DisableRefinement = disabled
				res, err := core.ClusterSegmentsContext(context.Background(), segs, p, nil)
				if err != nil {
					b.Fatal(err)
				}
				m = eval.EvaluateResult(res)
			}
			b.ReportMetric(m.Precision, "P")
			b.ReportMetric(m.FScore, "F")
		})
	}
}

// A2 — ablation: automatic ε selection versus a fixed-ε grid.
func BenchmarkAblationEpsilon(b *testing.B) {
	segs := ablationTrace(b, "ntp", 100)
	pool := dissim.NewPool(segs)
	matrix, err := dissim.ComputeMatrixContext(context.Background(), pool, dissim.Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := matrix.Close(); err != nil {
			b.Error(err)
		}
	})
	run := func(b *testing.B, p core.Params) eval.Metrics {
		var m eval.Metrics
		for i := 0; i < b.N; i++ {
			res, err := core.ClusterPoolContext(context.Background(), pool, matrix, p)
			if err != nil {
				b.Fatal(err)
			}
			m = eval.EvaluateResult(res)
		}
		return m
	}
	b.Run("auto", func(b *testing.B) {
		m := run(b, core.DefaultParams())
		b.ReportMetric(m.FScore, "F")
	})
	for _, eps := range []float64{0.05, 0.1, 0.2, 0.4} {
		eps := eps
		b.Run(fmt.Sprintf("fixed-%.2f", eps), func(b *testing.B) {
			p := core.DefaultParams()
			p.FixedEpsilon = eps
			m := run(b, p)
			b.ReportMetric(m.FScore, "F")
		})
	}
}

// A3 — ablation: the Canberra length-mismatch penalty factor (variable-
// length DNS names are the sensitive case).
func BenchmarkAblationPenalty(b *testing.B) {
	segs := ablationTrace(b, "dns", 100)
	for _, pf := range []float64{0, 0.15, canberra.DefaultPenalty, 0.6, 1.0} {
		pf := pf
		b.Run(fmt.Sprintf("pf-%.2f", pf), func(b *testing.B) {
			var m eval.Metrics
			for i := 0; i < b.N; i++ {
				p := core.DefaultParams()
				p.Penalty = pf
				res, err := core.ClusterSegmentsContext(context.Background(), segs, p, nil)
				if err != nil {
					b.Fatal(err)
				}
				m = eval.EvaluateResult(res)
			}
			b.ReportMetric(m.Precision, "P")
			b.ReportMetric(m.FScore, "F")
		})
	}
}

// Component benchmarks: the pipeline's dominant costs.

func BenchmarkDissimilarityMatrix(b *testing.B) {
	segs := ablationTrace(b, "ntp", 100)
	pool := dissim.NewPool(segs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := dissim.ComputeMatrixContext(context.Background(), pool, dissim.Config{Penalty: canberra.DefaultPenalty})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpsilonAutoConfig(b *testing.B) {
	segs := ablationTrace(b, "ntp", 100)
	pool := dissim.NewPool(segs)
	matrix, err := dissim.ComputeMatrixContext(context.Background(), pool, dissim.Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := matrix.Close(); err != nil {
			b.Error(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ConfigureContext(context.Background(), matrix, core.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullPipeline(b *testing.B) {
	for _, spec := range []struct {
		proto string
		n     int
	}{{"ntp", 100}, {"dns", 100}, {"awdl", 100}} {
		spec := spec
		b.Run(fmt.Sprintf("%s-%d", spec.proto, spec.n), func(b *testing.B) {
			tr, err := protocols.Generate(spec.proto, spec.n, experiments.Seed)
			if err != nil {
				b.Fatal(err)
			}
			o := protoclust.DefaultOptions()
			o.Segmenter = protoclust.SegmenterTruth
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := protoclust.AnalyzeContext(context.Background(), tr, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSegmenters(b *testing.B) {
	tr, err := protocols.Generate("ntp", 100, experiments.Seed)
	if err != nil {
		b.Fatal(err)
	}
	dd := tr.Deduplicate()
	for _, seg := range experiments.Segmenters() {
		seg := seg
		b.Run(seg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := seg.Segment(context.Background(), dd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A4 — ablation: DBSCAN vs. OPTICS as the density clusterer. The paper
// (Section III-F) reports that OPTICS and HDBSCAN over-classify the
// same way DBSCAN does and picks DBSCAN for its refinement hooks.
func BenchmarkAblationClusterer(b *testing.B) {
	segs := ablationTrace(b, "dns", 100)
	for _, clusterer := range []string{"dbscan", "optics", "hdbscan"} {
		clusterer := clusterer
		b.Run(clusterer, func(b *testing.B) {
			var m eval.Metrics
			var clusters int
			for i := 0; i < b.N; i++ {
				p := core.DefaultParams()
				p.Clusterer = clusterer
				res, err := core.ClusterSegmentsContext(context.Background(), segs, p, nil)
				if err != nil {
					b.Fatal(err)
				}
				m = eval.EvaluateResult(res)
				clusters = len(res.Clusters)
			}
			b.ReportMetric(m.Precision, "P")
			b.ReportMetric(m.FScore, "F")
			b.ReportMetric(float64(clusters), "clusters")
		})
	}
}

// A5 — ablation: the >60 %-cluster ε correction of Section III-E on
// versus off, on a trace with a legitimately dominant cluster (NTP:
// the guard costs a little recall) and on one where the first knee is
// genuinely too high (DHCP: the guard rescues precision).
func BenchmarkAblationGuard(b *testing.B) {
	for _, proto := range []string{"ntp", "dhcp"} {
		proto := proto
		segs := ablationTrace(b, proto, 1000)
		for _, disabled := range []bool{false, true} {
			disabled := disabled
			name := proto + "/on"
			if disabled {
				name = proto + "/off"
			}
			b.Run(name, func(b *testing.B) {
				var m eval.Metrics
				var eps float64
				for i := 0; i < b.N; i++ {
					p := core.DefaultParams()
					if disabled {
						p.LargeClusterShare = 1.1 // share can never exceed 1
					}
					res, err := core.ClusterSegmentsContext(context.Background(), segs, p, nil)
					if err != nil {
						b.Fatal(err)
					}
					m = eval.EvaluateResult(res)
					eps = res.Config.Epsilon
				}
				b.ReportMetric(m.Precision, "P")
				b.ReportMetric(m.Recall, "R")
				b.ReportMetric(m.FScore, "F")
				b.ReportMetric(eps, "eps")
			})
		}
	}
}
