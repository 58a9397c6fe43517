// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV): Table I (clustering from ground-truth
// segments), Table II (clustering on heuristic segments with coverage),
// Figure 2 (the ε auto-configuration ECDF and knee), Figure 3 (typical
// heuristic boundary errors inside high-entropy fields), and the
// Section IV-D coverage comparison against FieldHunter.
//
// The same entry points back cmd/evaltables and the repository's
// benchmark suite, so printed tables and benchmarks cannot drift apart.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"protoclust/internal/core"
	"protoclust/internal/eval"
	"protoclust/internal/fieldhunter"
	"protoclust/internal/netmsg"
	"protoclust/internal/protocols"
	"protoclust/internal/segment"
	"protoclust/internal/segment/csp"
	"protoclust/internal/segment/nemesys"
	"protoclust/internal/segment/netzob"
)

// Seed is the fixed trace-generation seed used by all experiments, so
// every regenerated table is reproducible bit for bit.
const Seed = 1

// Table1Row is one line of Table I: pseudo-data-type clustering from
// ground-truth segments.
type Table1Row struct {
	Protocol  string
	Messages  int // trace size before dedup
	Fields    int // unique segments entering clustering
	Epsilon   float64
	Clusters  int
	Precision float64
	Recall    float64
	FScore    float64
}

// Table1 regenerates Table I for all paper traces.
func Table1(ctx context.Context) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(protocols.PaperTraces()))
	for _, spec := range protocols.PaperTraces() {
		row, err := Table1Row1(ctx, spec.Protocol, spec.Messages)
		if err != nil {
			return nil, fmt.Errorf("experiments: table 1 %s: %w", spec, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table1Row1 computes a single Table I row.
func Table1Row1(ctx context.Context, protocol string, messages int) (Table1Row, error) {
	tr, err := protocols.Generate(protocol, messages, Seed)
	if err != nil {
		return Table1Row{}, err
	}
	dd := tr.Deduplicate()
	segs, err := segment.GroundTruth{}.Segment(ctx, dd)
	if err != nil {
		return Table1Row{}, err
	}
	res, err := core.ClusterSegmentsContext(ctx, segs, core.DefaultParams(), nil)
	if err != nil {
		return Table1Row{}, err
	}
	m := eval.EvaluateResult(res)
	return Table1Row{
		Protocol:  protocol,
		Messages:  messages,
		Fields:    res.Pool.Size(),
		Epsilon:   res.Config.Epsilon,
		Clusters:  len(res.Clusters),
		Precision: m.Precision,
		Recall:    m.Recall,
		FScore:    m.FScore,
	}, nil
}

// Table2Row is one line of Table II: clustering on heuristic segments,
// per segmenter, with coverage. Failed marks runs whose segmenter
// exceeded its work budget (the paper's "fails" entries).
type Table2Row struct {
	Protocol  string
	Messages  int
	Segmenter string
	Failed    bool
	Precision float64
	Recall    float64
	FScore    float64
	Coverage  float64
}

// Segmenters returns the heuristic segmenters of Table II in the
// paper's column order.
func Segmenters() []segment.Segmenter {
	return []segment.Segmenter{
		&netzob.Segmenter{},
		&nemesys.Segmenter{},
		&csp.Segmenter{},
	}
}

// Table2 regenerates Table II for all paper traces and all three
// heuristic segmenters.
func Table2(ctx context.Context) ([]Table2Row, error) {
	var rows []Table2Row
	for _, spec := range protocols.PaperTraces() {
		for _, seg := range Segmenters() {
			row, err := Table2Row1(ctx, spec.Protocol, spec.Messages, seg)
			if err != nil {
				return nil, fmt.Errorf("experiments: table 2 %s/%s: %w", spec, seg.Name(), err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Table2Row1 computes a single Table II cell group (one protocol × one
// segmenter). Budget exhaustion is reported via Failed, not an error.
func Table2Row1(ctx context.Context, protocol string, messages int, seg segment.Segmenter) (Table2Row, error) {
	tr, err := protocols.Generate(protocol, messages, Seed)
	if err != nil {
		return Table2Row{}, err
	}
	dd := tr.Deduplicate()
	row := Table2Row{Protocol: protocol, Messages: messages, Segmenter: seg.Name()}
	segs, err := seg.Segment(ctx, dd)
	if err != nil {
		if errors.Is(err, segment.ErrBudgetExceeded) {
			row.Failed = true
			return row, nil
		}
		return Table2Row{}, err
	}
	res, err := core.ClusterSegmentsContext(ctx, segs, core.DefaultParams(), nil)
	if err != nil {
		return Table2Row{}, err
	}
	m := eval.EvaluateResult(res)
	row.Precision = m.Precision
	row.Recall = m.Recall
	row.FScore = m.FScore
	row.Coverage = eval.Coverage(res, dd)
	return row, nil
}

// Figure2Data is the diagnostic curve of the ε auto-configuration on
// the NTP trace: the Ê_k ECDF, its B-spline smoothing, and the detected
// knee whose dissimilarity becomes ε.
type Figure2Data struct {
	Protocol string
	Messages int
	K        int
	X        []float64
	ECDF     []float64
	Smoothed []float64
	KneeX    float64
	Epsilon  float64
}

// Figure2 regenerates the Figure 2 series (NTP, 1000 messages).
func Figure2(ctx context.Context) (*Figure2Data, error) {
	return Figure2For(ctx, "ntp", 1000)
}

// Figure2For builds the ECDF/knee series for any generated trace.
func Figure2For(ctx context.Context, protocol string, messages int) (*Figure2Data, error) {
	tr, err := protocols.Generate(protocol, messages, Seed)
	if err != nil {
		return nil, err
	}
	dd := tr.Deduplicate()
	segs, err := segment.GroundTruth{}.Segment(ctx, dd)
	if err != nil {
		return nil, err
	}
	res, err := core.ClusterSegmentsContext(ctx, segs, core.DefaultParams(), nil)
	if err != nil {
		return nil, err
	}
	c := res.Config.Curve
	out := &Figure2Data{
		Protocol: protocol,
		Messages: messages,
		K:        res.Config.K,
		X:        c.X,
		ECDF:     c.Y,
		Smoothed: c.Smoothed,
		Epsilon:  res.Config.Epsilon,
	}
	if c.KneeIndex >= 0 && c.KneeIndex < len(c.X) {
		out.KneeX = c.X[c.KneeIndex]
	}
	return out, nil
}

// Figure3Example is one message's worth of Figure 3: the true boundaries
// of a high-entropy field (an NTP timestamp) versus the heuristic
// segmentation that splits it.
type Figure3Example struct {
	// Hex is the timestamp field's bytes.
	Hex string
	// TrueStart and TrueEnd delimit the true field in the message.
	TrueStart, TrueEnd int
	// InferredBoundaries are the segment starts the heuristic placed
	// inside the true field (relative to the field start).
	InferredBoundaries []int
}

// Figure3 reproduces the Figure 3 demonstration: NEMESYS segment
// boundaries cutting into NTP transmit timestamps, whose random
// low-order bytes cannot be clustered by value (Section IV-C).
func Figure3(ctx context.Context, examples int) ([]Figure3Example, error) {
	tr, err := protocols.Generate("ntp", 100, Seed)
	if err != nil {
		return nil, err
	}
	dd := tr.Deduplicate()
	seg := &nemesys.Segmenter{}
	segs, err := seg.Segment(ctx, dd)
	if err != nil {
		return nil, err
	}
	perMsg := make(map[*netmsg.Message][]netmsg.Segment)
	for _, s := range segs {
		perMsg[s.Msg] = append(perMsg[s.Msg], s)
	}
	var out []Figure3Example
	for _, m := range dd.Messages {
		if len(out) >= examples {
			break
		}
		for _, f := range m.Fields {
			if f.Name != "ts_xmt" {
				continue
			}
			var inside []int
			for _, s := range perMsg[m] {
				if s.Offset > f.Offset && s.Offset < f.End() {
					inside = append(inside, s.Offset-f.Offset)
				}
			}
			if len(inside) == 0 {
				continue
			}
			sort.Ints(inside)
			out = append(out, Figure3Example{
				Hex:                fmt.Sprintf("%x", m.Data[f.Offset:f.End()]),
				TrueStart:          f.Offset,
				TrueEnd:            f.End(),
				InferredBoundaries: inside,
			})
			break
		}
	}
	if len(out) == 0 {
		return nil, errors.New("experiments: no split timestamps found (unexpected)")
	}
	return out, nil
}

// CoverageRow compares clustering coverage against FieldHunter for one
// protocol (Section IV-D).
type CoverageRow struct {
	Protocol string
	Messages int
	// ClusterCoverage is the byte coverage of pseudo-data-type
	// clustering on NEMESYS segments.
	ClusterCoverage float64
	// FieldHunterCoverage is the byte coverage of the rule-based
	// baseline; NoContext marks protocols FieldHunter cannot analyze.
	FieldHunterCoverage float64
	NoContext           bool
}

// CoverageComparison regenerates the Section IV-D comparison over the
// large traces.
func CoverageComparison(ctx context.Context) ([]CoverageRow, error) {
	specs := []protocols.TraceSpec{
		{Protocol: "dhcp", Messages: 1000},
		{Protocol: "dns", Messages: 1000},
		{Protocol: "nbns", Messages: 1000},
		{Protocol: "ntp", Messages: 1000},
		{Protocol: "smb", Messages: 1000},
		{Protocol: "awdl", Messages: 768},
		{Protocol: "au", Messages: 123},
	}
	var rows []CoverageRow
	for _, spec := range specs {
		tr, err := protocols.Generate(spec.Protocol, spec.Messages, Seed)
		if err != nil {
			return nil, err
		}
		dd := tr.Deduplicate()
		row := CoverageRow{Protocol: spec.Protocol, Messages: spec.Messages}

		segs, err := (&nemesys.Segmenter{}).Segment(ctx, dd)
		if err != nil {
			return nil, fmt.Errorf("experiments: nemesys on %s: %w", spec, err)
		}
		res, err := core.ClusterSegmentsContext(ctx, segs, core.DefaultParams(), nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: clustering %s: %w", spec, err)
		}
		row.ClusterCoverage = eval.Coverage(res, dd)

		fh, err := fieldhunter.Analyze(dd)
		switch {
		case errors.Is(err, fieldhunter.ErrNoContext):
			row.NoContext = true
		case err != nil:
			return nil, fmt.Errorf("experiments: fieldhunter on %s: %w", spec, err)
		default:
			row.FieldHunterCoverage = fh.Coverage(dd)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Averages summarizes the coverage comparison: mean clustering coverage
// and mean FieldHunter coverage (over the protocols it can analyze).
func Averages(rows []CoverageRow) (cluster, fieldHunter float64) {
	var cSum float64
	var fSum float64
	var fN int
	for _, r := range rows {
		cSum += r.ClusterCoverage
		if !r.NoContext {
			fSum += r.FieldHunterCoverage
			fN++
		}
	}
	if len(rows) > 0 {
		cluster = cSum / float64(len(rows))
	}
	if fN > 0 {
		fieldHunter = fSum / float64(fN)
	}
	return cluster, fieldHunter
}

// SeedSweepRow aggregates clustering quality across generator seeds for
// one trace spec — the robustness experiment R1 (DESIGN.md §4): the
// evaluation pins Seed = 1, and this sweep shows the result shape is
// not an artifact of that choice.
type SeedSweepRow struct {
	Protocol string
	Messages int
	Seeds    int
	// MeanP/MeanF and StdP/StdF summarize precision and F¼ across seeds.
	MeanP, StdP float64
	MeanF, StdF float64
}

// SeedSweep runs the Table I configuration for every seed and
// aggregates the quality statistics.
func SeedSweep(ctx context.Context, protocol string, messages int, seeds []int64) (SeedSweepRow, error) {
	row := SeedSweepRow{Protocol: protocol, Messages: messages, Seeds: len(seeds)}
	if len(seeds) == 0 {
		return row, errors.New("experiments: no seeds")
	}
	var ps, fs []float64
	for _, seed := range seeds {
		tr, err := protocols.Generate(protocol, messages, seed)
		if err != nil {
			return row, err
		}
		segs, err := segment.GroundTruth{}.Segment(ctx, tr.Deduplicate())
		if err != nil {
			return row, err
		}
		res, err := core.ClusterSegmentsContext(ctx, segs, core.DefaultParams(), nil)
		if err != nil {
			return row, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		m := eval.EvaluateResult(res)
		ps = append(ps, m.Precision)
		fs = append(fs, m.FScore)
	}
	row.MeanP, row.StdP = meanStd(ps)
	row.MeanF, row.StdF = meanStd(fs)
	return row, nil
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
