package sweep

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"protoclust"
	"protoclust/internal/core"
	"protoclust/internal/netmsg"
)

// truthTrace builds a trace of single-field messages with ground-truth
// dissections, one message per value.
func truthTrace(vals [][]byte) *protoclust.Trace {
	tr := &protoclust.Trace{Protocol: "test"}
	for _, v := range vals {
		tr.Messages = append(tr.Messages, &netmsg.Message{
			Data: v,
			Fields: []netmsg.Field{
				{Name: "f", Offset: 0, Length: len(v), Type: netmsg.FieldType("A")},
			},
		})
	}
	return tr
}

func ntpTrace(t *testing.T, n int) *protoclust.Trace {
	t.Helper()
	tr, err := protoclust.GenerateTrace("ntp", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func truthOptions() protoclust.Options {
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	return o
}

func TestGridConfigsOrderAndDefaults(t *testing.T) {
	g := Grid{}
	cs := g.Configs()
	if len(cs) != 1 {
		t.Fatalf("empty grid expands to %d configs, want 1", len(cs))
	}
	if cs[0].Segmenter != protoclust.SegmenterNEMESYS || cs[0].Clusterer != "dbscan" ||
		cs[0].K != 0 || cs[0].Eps.Mode != EpsKnee {
		t.Errorf("default config = %+v", cs[0])
	}

	g = Grid{
		Segmenters: []string{"truth", "nemesys"},
		Clusterers: []string{"dbscan", "optics"},
		Ks:         []int{0, 2, 3},
		EpsSources: []EpsSource{{Mode: EpsKnee}, {Mode: EpsQuantile, Quantile: 0.5}},
	}
	cs = g.Configs()
	if len(cs) != 2*2*3*2 {
		t.Fatalf("grid expands to %d configs, want 24", len(cs))
	}
	for i, c := range cs {
		if c.Index != i {
			t.Fatalf("config %d has Index %d", i, c.Index)
		}
	}
	// Segmenter-major: the first half shares one segmenter.
	for i := 0; i < 12; i++ {
		if cs[i].Segmenter != "truth" {
			t.Fatalf("config %d segmenter = %s, want truth (segmenter-major order)", i, cs[i].Segmenter)
		}
	}
}

// TestRunRejectsUnknownClustererEarly pins that a grid naming an
// unknown clusterer fails the sweep before any matrix is built, rather
// than after segmentation, the matrix build and auto-configuration as
// a per-configuration failure.
func TestRunRejectsUnknownClustererEarly(t *testing.T) {
	built := 0
	_, err := Run(context.Background(), ntpTrace(t, 50), Options{
		Grid:        Grid{Segmenters: []string{"truth"}, Clusterers: []string{"bogus", "dbscan"}},
		Base:        truthOptions(),
		MatrixBuilt: func(string) { built++ },
	})
	if err == nil || !strings.Contains(err.Error(), `unknown clusterer "bogus"`) {
		t.Fatalf("err = %v, want an unknown-clusterer error", err)
	}
	if built != 0 {
		t.Fatalf("%d matrices built before the grid was rejected, want 0", built)
	}
}

func TestParseEps(t *testing.T) {
	good := map[string]EpsSource{
		"knee":         {Mode: EpsKnee},
		"quantile:0.6": {Mode: EpsQuantile, Quantile: 0.6},
		"fixed:0.25":   {Mode: EpsFixed, Epsilon: 0.25},
	}
	for spec, want := range good {
		got, err := ParseEps(spec)
		if err != nil || got != want {
			t.Errorf("ParseEps(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"", "bogus", "quantile:0", "quantile:1", "quantile:1.2", "fixed:0", "fixed:-1"} {
		if _, err := ParseEps(spec); err == nil {
			t.Errorf("ParseEps(%q) succeeded, want error", spec)
		}
	}
}

// TestDegenerateGridSkips is the satellite regression: a 3-segment pool
// where pinned k candidates exceed the [2, ln n] range must surface as
// per-config "skipped: reason" entries — never abort the sweep.
func TestDegenerateGridSkips(t *testing.T) {
	tr := truthTrace([][]byte{
		{0, 0, 0, 1}, {0, 0, 0, 2}, {0, 0, 255, 255},
	})
	rep, err := Run(context.Background(), tr, Options{
		Grid: Grid{
			Segmenters: []string{protoclust.SegmenterTruth},
			Ks:         []int{0, 3, 4}, // kMax(3) = 2: pinned 3 and 4 are out of range
		},
		Base: truthOptions(),
	})
	if err != nil {
		t.Fatalf("sweep aborted on degenerate grid: %v", err)
	}
	if rep.Total != 3 {
		t.Fatalf("total = %d, want 3", rep.Total)
	}
	if rep.Skipped < 2 {
		t.Fatalf("skipped = %d, want ≥ 2 (out-of-range ks); report: %+v", rep.Skipped, rep.Configs)
	}
	for _, c := range rep.Configs[1:] {
		if c.Status != StatusSkipped {
			t.Errorf("config %s status = %s (%s), want skipped", c.Config.Label(), c.Status, c.Reason)
		}
		if !strings.Contains(c.Reason, "fixed k") {
			t.Errorf("config %s skip reason = %q, want the ErrKOutOfRange cause", c.Config.Label(), c.Reason)
		}
	}
}

// TestDegenerateSegmenterGroupSkips: when the shared prefix itself is
// degenerate (pool below three unique segments), every configuration of
// that segmenter is skipped and other groups are unaffected.
func TestDegenerateSegmenterGroupSkips(t *testing.T) {
	tr := truthTrace([][]byte{
		{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4},
	})
	rep, err := Run(context.Background(), tr, Options{
		Grid: Grid{Segmenters: []string{protoclust.SegmenterTruth}, Ks: []int{0, 2}},
		Base: truthOptions(),
	})
	if err != nil {
		t.Fatalf("sweep aborted: %v", err)
	}
	if rep.Skipped != rep.Total {
		t.Fatalf("skipped = %d of %d, want all (degenerate pool)", rep.Skipped, rep.Total)
	}
	if rep.MatrixBuilds != 0 {
		t.Errorf("matrix builds = %d, want 0 for a degenerate group", rep.MatrixBuilds)
	}
}

// TestSingleConfigMatchesAnalyze is the cross-algorithm property test:
// a sweep over a single-config grid returns a byte-identical report to
// a direct AnalyzeContext run with the same options.
func TestSingleConfigMatchesAnalyze(t *testing.T) {
	tr := ntpTrace(t, 50)
	cases := []struct {
		name string
		grid Grid
		opts protoclust.Options
	}{
		{
			name: "knee-default",
			grid: Grid{Segmenters: []string{protoclust.SegmenterTruth}},
			opts: truthOptions(),
		},
		{
			name: "quantile-optics",
			grid: Grid{
				Segmenters: []string{protoclust.SegmenterTruth},
				Clusterers: []string{"optics"},
				EpsSources: []EpsSource{{Mode: EpsQuantile, Quantile: 0.6}},
			},
			opts: func() protoclust.Options {
				o := truthOptions()
				o.Params.Clusterer = "optics"
				o.Params.EpsQuantile = 0.6
				return o
			}(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(context.Background(), tr, Options{Grid: tc.grid, Base: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Total != 1 || rep.Completed != 1 {
				t.Fatalf("sweep: total=%d completed=%d (reason %q)", rep.Total, rep.Completed, rep.Configs[0].Reason)
			}
			direct, err := protoclust.AnalyzeContext(context.Background(), tr, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(direct.Report(3))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rep.Configs[0].Report)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("sweep report differs from direct AnalyzeContext report:\nsweep:  %s\ndirect: %s", got, want)
			}
			if !rep.Configs[0].Pareto || len(rep.Pareto) != 1 {
				t.Errorf("single completed config must be the whole Pareto front; got %v", rep.Pareto)
			}
		})
	}
}

// sweepJSON runs a sweep and returns its canonical JSON encoding.
func sweepJSON(t *testing.T, tr *protoclust.Trace, o Options) (string, *Report) {
	t.Helper()
	rep, err := Run(context.Background(), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), rep
}

// TestEnsembleDeterminism: the full report — including the ensemble
// consensus labels — is byte-identical across repeated runs and across
// serial vs maximal parallelism.
func TestEnsembleDeterminism(t *testing.T) {
	tr := ntpTrace(t, 50)
	opts := Options{
		Grid: Grid{
			Segmenters: []string{protoclust.SegmenterTruth},
			Clusterers: []string{"dbscan", "optics"},
			EpsSources: []EpsSource{{Mode: EpsKnee}, {Mode: EpsQuantile, Quantile: 0.5}},
		},
		Base:     truthOptions(),
		Ensemble: true,
	}

	serial := opts
	serial.Parallelism = 1
	parallel := opts
	parallel.Parallelism = 8

	j1, rep1 := sweepJSON(t, tr, serial)
	j2, _ := sweepJSON(t, tr, serial)
	j3, _ := sweepJSON(t, tr, parallel)
	if j1 != j2 {
		t.Error("report differs across two serial runs")
	}
	if j1 != j3 {
		t.Error("report differs between Parallelism=1 and Parallelism=8")
	}
	if len(rep1.Ensembles) != 1 {
		t.Fatalf("ensembles = %d, want 1", len(rep1.Ensembles))
	}
	ens := rep1.Ensembles[0]
	if len(ens.Members) < 2 {
		t.Fatalf("ensemble members = %d, want ≥ 2", len(ens.Members))
	}
	if len(ens.Labels) == 0 || ens.LabelsHash != hashLabels(ens.Labels) {
		t.Error("ensemble labels hash does not match the label vector")
	}
}

// TestWeightedEnsembleDeterminism: the score-weighted cut is as
// deterministic as the equal-weight one — byte-identical reports across
// repeated serial runs and across serial vs maximal parallelism — and
// the result is flagged as weighted. Weighted accumulation sums float64
// votes in grid order, so this also witnesses that fan-out scheduling
// never reorders the summation.
func TestWeightedEnsembleDeterminism(t *testing.T) {
	tr := ntpTrace(t, 50)
	opts := Options{
		Grid: Grid{
			Segmenters: []string{protoclust.SegmenterTruth},
			Clusterers: []string{"dbscan", "optics"},
			EpsSources: []EpsSource{{Mode: EpsKnee}, {Mode: EpsQuantile, Quantile: 0.5}},
		},
		Base:             truthOptions(),
		Ensemble:         true,
		EnsembleWeighted: true,
	}

	serial := opts
	serial.Parallelism = 1
	parallel := opts
	parallel.Parallelism = 8

	j1, rep1 := sweepJSON(t, tr, serial)
	j2, _ := sweepJSON(t, tr, serial)
	j3, _ := sweepJSON(t, tr, parallel)
	if j1 != j2 {
		t.Error("weighted report differs across two serial runs")
	}
	if j1 != j3 {
		t.Error("weighted report differs between Parallelism=1 and Parallelism=8")
	}
	if len(rep1.Ensembles) != 1 {
		t.Fatalf("ensembles = %d, want 1", len(rep1.Ensembles))
	}
	ens := rep1.Ensembles[0]
	if !ens.Weighted {
		t.Error("ensemble not flagged as weighted")
	}
	if len(ens.Labels) == 0 || ens.LabelsHash != hashLabels(ens.Labels) {
		t.Error("weighted ensemble labels hash does not match the label vector")
	}

	// The default path must stay equal-weight and unflagged.
	equal := opts
	equal.EnsembleWeighted = false
	_, repEq := sweepJSON(t, tr, equal)
	if len(repEq.Ensembles) != 1 || repEq.Ensembles[0].Weighted {
		t.Error("equal-weight ensemble unexpectedly flagged as weighted")
	}
}

// TestWeightedCoassocMatchesEqualUnderUniformWeights: with every member
// voting at the same weight, the weighted matrix produces the same
// quantized dissimilarities as the uint16 matrix — the weighted cut is
// a strict generalization, not a different geometry.
func TestWeightedCoassocMatchesEqualUnderUniformWeights(t *testing.T) {
	labelings := [][]int{
		{0, 0, 1, 1, -1, 2},
		{0, 1, 1, 0, 0, -1},
		{0, 0, 0, 1, 1, 1},
	}
	n := 6
	cm, err := newCoassocMatrix[uint16](n, 0)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := newCoassocMatrix[float64](n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labelings {
		cm.accumulate(l, 1)
		wm.accumulate(l, 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if cm.Dist(i, j) != wm.Dist(i, j) {
				t.Errorf("Dist(%d, %d): equal %v, weighted %v", i, j, cm.Dist(i, j), wm.Dist(i, j))
			}
		}
		var eq, wt []float32
		cm.StreamSuffix(i, func(lo int, vals []float32) { eq = append(eq, vals...) })
		wm.StreamSuffix(i, func(lo int, vals []float32) { wt = append(wt, vals...) })
		if len(eq) != n-i-1 || len(wt) != n-i-1 {
			t.Fatalf("row %d: suffix lengths %d, %d, want %d", i, len(eq), len(wt), n-i-1)
		}
		for j := range eq {
			if eq[j] != wt[j] {
				t.Errorf("StreamSuffix(%d)[%d]: equal %v, weighted %v", i, j, eq[j], wt[j])
			}
		}
	}
}

// TestWeightedCoassocFavorsHeavyVoter: a dominant-weight member decides
// pairs the light members disagree on.
func TestWeightedCoassocFavorsHeavyVoter(t *testing.T) {
	wm, err := newCoassocMatrix[float64](2, 0)
	if err != nil {
		t.Fatal(err)
	}
	wm.accumulate([]int{0, 0}, 0.9) // strong member: together
	wm.accumulate([]int{0, 1}, 0.1) // weak member: apart
	if d := wm.Dist(0, 1); d >= ensembleEpsilon {
		t.Errorf("Dist = %v, want < %v (heavy voter said together)", d, ensembleEpsilon)
	}
	wm2, err := newCoassocMatrix[float64](2, 0)
	if err != nil {
		t.Fatal(err)
	}
	wm2.accumulate([]int{0, 0}, 0.1)
	wm2.accumulate([]int{0, 1}, 0.9)
	if d := wm2.Dist(0, 1); d < ensembleEpsilon {
		t.Errorf("Dist = %v, want ≥ %v (heavy voter said apart)", d, ensembleEpsilon)
	}
}

// TestMemberWeight pins the weight source: F-score under truth,
// silhouette otherwise, never negative, zero when unscored.
func TestMemberWeight(t *testing.T) {
	r := ConfigResult{Scores: &Scores{FScore: 0.8, Silhouette: 0.3}}
	if w := memberWeight(&r, true); w != 0.8 {
		t.Errorf("truth weight = %v, want 0.8", w)
	}
	if w := memberWeight(&r, false); w != 0.3 {
		t.Errorf("internal weight = %v, want 0.3", w)
	}
	neg := ConfigResult{Scores: &Scores{Silhouette: -0.4}}
	if w := memberWeight(&neg, false); w != 0 {
		t.Errorf("negative silhouette weight = %v, want 0", w)
	}
	if w := memberWeight(&ConfigResult{}, true); w != 0 {
		t.Errorf("unscored weight = %v, want 0", w)
	}
}

// TestSweepCancellation: a pre-cancelled context aborts the fan-out and
// surfaces the context error.
func TestSweepCancellation(t *testing.T) {
	tr := ntpTrace(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, tr, Options{
		Grid: Grid{Segmenters: []string{protoclust.SegmenterTruth}, Ks: []int{0, 2, 3}},
		Base: truthOptions(),
	})
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %v does not carry the cancellation cause", err)
	}
}

// TestSweepSharedMatrix: one matrix build serves every configuration of
// a segmenter group.
func TestSweepSharedMatrix(t *testing.T) {
	tr := ntpTrace(t, 50)
	var built []string
	rep, err := Run(context.Background(), tr, Options{
		Grid: Grid{
			Segmenters: []string{protoclust.SegmenterTruth},
			Clusterers: []string{"dbscan", "optics", "hdbscan"},
			EpsSources: []EpsSource{{Mode: EpsKnee}, {Mode: EpsQuantile, Quantile: 0.6}},
		},
		Base:        truthOptions(),
		MatrixBuilt: func(seg string) { built = append(built, seg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 6 {
		t.Fatalf("total = %d, want 6", rep.Total)
	}
	if rep.MatrixBuilds != 1 || len(built) != 1 {
		t.Errorf("matrix builds = %d (callback %v), want exactly 1 for one segmenter", rep.MatrixBuilds, built)
	}
	if rep.Completed == 0 {
		t.Fatalf("no configuration completed: %+v", rep.Configs)
	}
}

func TestParetoDominance(t *testing.T) {
	rep := &Report{Configs: []ConfigResult{
		{Status: StatusOK, Scores: &Scores{FScore: 0.9, AdjustedRand: 0.5, Coverage: 0.7}},
		{Status: StatusOK, Scores: &Scores{FScore: 0.8, AdjustedRand: 0.4, Coverage: 0.6}}, // dominated by 0
		{Status: StatusOK, Scores: &Scores{FScore: 0.5, AdjustedRand: 0.9, Coverage: 0.7}}, // trades off
		{Status: StatusSkipped},
	}}
	markPareto(rep, true)
	if got := rep.Pareto; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("pareto = %v, want [0 2]", got)
	}
	if rep.Configs[1].Pareto || rep.Configs[3].Pareto {
		t.Error("dominated or skipped configs marked Pareto")
	}
}

// TestCoassocContract: the co-association matrix honors the Matrix
// contract — StreamSuffix spans reproduce Dist exactly,
// cover (i, n) in order, and values are float32-quantized.
func TestCoassocContract(t *testing.T) {
	const n = 300 // more than one coassocChunk per early row
	cm, err := newCoassocMatrix[uint16](n, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Three overlapping labelings with deterministic structure.
	for round := 0; round < 3; round++ {
		labels := make([]int, n)
		for i := range labels {
			switch {
			case i%7 == round:
				labels[i] = -1
			default:
				labels[i] = (i + round) % 4
			}
		}
		cm.accumulate(labels, 1)
	}
	for i := 0; i < n; i++ {
		next := i + 1
		cm.StreamSuffix(i, func(lo int, vals []float32) {
			if lo != next {
				t.Fatalf("row %d: span starts at %d, want %d", i, lo, next)
			}
			for o, v := range vals {
				j := lo + o
				if d := cm.Dist(i, j); float64(v) != d {
					t.Fatalf("row %d col %d: stream %v != Dist %v", i, j, v, d)
				}
			}
			next += len(vals)
		})
		if next != n {
			t.Fatalf("row %d: spans end at column %d, want %d", i, next, n)
		}
	}
	for i := 0; i < n; i++ {
		if d := cm.Dist(i, i); d != 0 {
			t.Fatalf("diagonal (%d) = %v, want 0", i, d)
		}
	}
	// Symmetry and range.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := cm.Dist(i, j)
			if d != cm.Dist(j, i) || d < 0 || d > 1 {
				t.Fatalf("Dist(%d,%d) = %v: asymmetric or out of range", i, j, d)
			}
		}
	}
}

func TestCoassocBudget(t *testing.T) {
	if _, err := newCoassocMatrix[uint16](1000, 64); err == nil {
		t.Fatal("budget-exceeding co-association matrix allocated")
	}
	if _, err := newCoassocMatrix[uint16](100, 0); err != nil {
		t.Fatalf("unbounded allocation failed: %v", err)
	}
}

func TestWriteTable(t *testing.T) {
	tr := ntpTrace(t, 50)
	rep, err := Run(context.Background(), tr, Options{
		Grid:     Grid{Segmenters: []string{protoclust.SegmenterTruth}, EpsSources: []EpsSource{{Mode: EpsKnee}, {Mode: EpsQuantile, Quantile: 0.5}}},
		Base:     truthOptions(),
		Ensemble: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTable(&sb, rep); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"sweep: ntp", "Pareto front", "truth/dbscan"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestProgressCallback observes monotone progress up to the total.
func TestProgressCallback(t *testing.T) {
	tr := ntpTrace(t, 50)
	var seen []int
	_, err := Run(context.Background(), tr, Options{
		Grid:     Grid{Segmenters: []string{protoclust.SegmenterTruth}, Ks: []int{0, 2}},
		Base:     truthOptions(),
		Progress: func(done, total int) { seen = append(seen, done*100+total) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[len(seen)-1] != 2*100+2 {
		t.Errorf("progress sequence = %v, want two callbacks ending at done=total=2", seen)
	}
}

// TestFixedKChangesParams sanity-checks the axis projection.
func TestFixedKChangesParams(t *testing.T) {
	base := core.DefaultParams()
	c := Config{Clusterer: "optics", K: 3, Eps: EpsSource{Mode: EpsFixed, Epsilon: 0.25}}
	p := c.params(base)
	if p.Clusterer != "optics" || p.FixedK != 3 || p.FixedEpsilon != 0.25 || p.EpsQuantile != 0 {
		t.Errorf("params projection = %+v", p)
	}
	c.Eps = EpsSource{Mode: EpsQuantile, Quantile: 0.4}
	p = c.params(base)
	if p.FixedEpsilon != 0 || p.EpsQuantile != 0.4 {
		t.Errorf("quantile projection = %+v", p)
	}
}

// TestHashLabels pins the digest layout (little-endian int64 per label).
func TestHashLabels(t *testing.T) {
	a := hashLabels([]int{0, 1, -1})
	b := hashLabels([]int{0, 1, -1})
	c := hashLabels([]int{0, -1, 1})
	if a != b {
		t.Error("hash not deterministic")
	}
	if a == c {
		t.Error("hash ignores order")
	}
	var buf [8]byte
	neg := int64(-1)
	binary.LittleEndian.PutUint64(buf[:], uint64(neg))
	if buf[0] != 0xff {
		t.Error("encoding sanity check failed")
	}
}
