// Package protoclust clusters message field data types of unknown
// binary protocols from recorded traffic, implementing Kleber, Kargl,
// Stute, Hollick: "Network Message Field Type Clustering for Reverse
// Engineering of Unknown Binary Protocols" (IEEE DSN-W 2022).
//
// Given a trace of messages, the pipeline splits each message into
// segments (field candidates), computes the pairwise Canberra
// dissimilarity of all unique segments, derives DBSCAN's parameters
// fully automatically from the k-nearest-neighbor dissimilarity
// distribution (ECDF → B-spline → Kneedle), clusters the segments, and
// refines the clusters. The result groups segments into pseudo data
// types: groups of fields that carry the same (still unnamed) data
// type, covering most bytes of every message.
//
// Quick start:
//
//	ctx := context.Background() // or one with a deadline
//	tr, _ := protoclust.GenerateTrace("ntp", 1000, 1)
//	analysis, err := protoclust.AnalyzeContext(ctx, tr, protoclust.DefaultOptions())
//	if err != nil { ... }
//	for _, pt := range analysis.PseudoTypes() {
//		fmt.Println(pt.ID, len(pt.Segments), pt.SampleValues(3))
//	}
package protoclust

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"protoclust/internal/core"
	"protoclust/internal/eval"
	"protoclust/internal/fieldhunter"
	"protoclust/internal/format"
	"protoclust/internal/msgtype"
	"protoclust/internal/netmsg"
	"protoclust/internal/pcap"
	"protoclust/internal/protocols"
	"protoclust/internal/report"
	"protoclust/internal/segment"
	"protoclust/internal/segment/csp"
	"protoclust/internal/segment/nemesys"
	"protoclust/internal/segment/netzob"
	"protoclust/internal/semantics"
	"protoclust/internal/valuemodel"
)

// Core data types of the trace model.
type (
	// Trace is an ordered collection of messages of one protocol.
	Trace = netmsg.Trace
	// Message is one protocol message plus capture metadata.
	Message = netmsg.Message
	// Segment is a field candidate within a message.
	Segment = netmsg.Segment
	// Field is a ground-truth typed byte range (evaluation only).
	Field = netmsg.Field
	// FieldType is a ground-truth data type label (evaluation only).
	FieldType = netmsg.FieldType
)

// Segmenter names accepted by Options.
const (
	// SegmenterTruth uses the ground-truth dissection (requires
	// generator traces or otherwise dissected messages).
	SegmenterTruth = "truth"
	// SegmenterNEMESYS uses bit-congruence analysis (Kleber et al.,
	// WOOT 2018).
	SegmenterNEMESYS = "nemesys"
	// SegmenterNetzob uses sequence alignment (Bossert et al., 2014).
	SegmenterNetzob = "netzob"
	// SegmenterCSP uses contiguous-sequential-pattern frequency analysis
	// (Goo et al., 2019).
	SegmenterCSP = "csp"
)

// ErrBudgetExceeded reports that a heuristic segmenter hit its work
// budget (the paper's "analysis run fails" outcome).
var ErrBudgetExceeded = segment.ErrBudgetExceeded

// Options configures an analysis.
type Options struct {
	// Segmenter selects how messages are split into field candidates:
	// one of SegmenterTruth, SegmenterNEMESYS, SegmenterNetzob,
	// SegmenterCSP. Default: SegmenterNEMESYS.
	Segmenter string
	// NoDeduplicate keeps duplicate payloads. By default they are
	// dropped before analysis (Section III-A); set it only for
	// experiments.
	NoDeduplicate bool
	// Params exposes every pipeline tunable. Only the all-zero value
	// falls back, to core.DefaultParams (the paper's configuration); a
	// Params with any field set is used as given, so start from
	// core.DefaultParams and override fields.
	Params core.Params
}

// DefaultOptions returns the paper's configuration with the NEMESYS
// segmenter.
func DefaultOptions() Options {
	return Options{
		Segmenter: SegmenterNEMESYS,
		Params:    core.DefaultParams(),
	}
}

// PseudoType is one inferred cluster of same-typed segments.
type PseudoType struct {
	// ID is a stable cluster identifier within the analysis.
	ID int
	// Segments are all segment occurrences of this pseudo data type.
	Segments []Segment
	// UniqueValues are the distinct byte values in the cluster.
	UniqueValues [][]byte
}

// SampleValues returns up to n distinct values as hex strings.
func (p *PseudoType) SampleValues(n int) []string {
	if n > len(p.UniqueValues) {
		n = len(p.UniqueValues)
	}
	out := make([]string, 0, n)
	for _, v := range p.UniqueValues[:n] {
		out = append(out, fmt.Sprintf("%x", v))
	}
	return out
}

// Analysis is the outcome of AnalyzeContext.
type Analysis struct {
	result  *core.Result
	trace   *Trace
	segs    []Segment
	timings []StageTiming
}

// StageTiming records the wall-clock duration of one pipeline stage.
type StageTiming struct {
	// Stage is "deduplicate", "segment", or "cluster".
	Stage string `json:"stage"`
	// Duration is the stage's wall-clock time.
	Duration time.Duration `json:"duration_ns"`
}

// AnalyzeContext runs the full pipeline of the paper on a trace, with
// cancellation and deadlines: the context is threaded through the
// heuristic segmenters, the O(n²) dissimilarity matrix build, the ε
// auto-configuration, and cluster refinement, so a cancelled or expired
// context aborts the analysis promptly instead of finishing the matrix.
// The returned error wraps ctx.Err(); test with
// errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded).
func AnalyzeContext(ctx context.Context, tr *Trace, o Options) (*Analysis, error) {
	return AnalyzeWithMatrixBuilder(ctx, tr, o, nil)
}

// AnalyzeWithMatrixBuilder is AnalyzeContext with the dissimilarity
// matrix build injected: a non-nil build, handed the matrix
// configuration core derives from o.Params, replaces the local kernel
// computation with another source of the same bits — the distributed
// coordinator assembles the matrix from worker-computed shards. A nil
// build is exactly AnalyzeContext. Every stage around the matrix
// (segmentation, ε auto-configuration, clustering, refinement) is
// identical either way, which is what makes distributed and local runs
// bit-identical.
func AnalyzeWithMatrixBuilder(ctx context.Context, tr *Trace, o Options, build core.MatrixBuilder) (*Analysis, error) {
	if tr == nil || len(tr.Messages) == 0 {
		return nil, errors.New("protoclust: empty trace")
	}
	if o.Segmenter == "" {
		o.Segmenter = SegmenterNEMESYS
	}
	if o.Params == (core.Params{}) {
		o.Params = core.DefaultParams()
	}
	if err := core.CheckClusterer(o.Params.Clusterer); err != nil {
		return nil, err
	}
	var timings []StageTiming
	stage := func(name string, start time.Time) {
		timings = append(timings, StageTiming{Stage: name, Duration: time.Since(start)})
	}
	if !o.NoDeduplicate {
		start := time.Now()
		tr = tr.Deduplicate()
		stage("deduplicate", start)
	}
	seg, err := NewSegmenter(o.Segmenter)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	segs, err := segment.Run(ctx, seg, tr)
	if err != nil {
		return nil, fmt.Errorf("protoclust: segmentation: %w", err)
	}
	stage("segment", start)
	start = time.Now()
	res, err := core.ClusterSegmentsContext(ctx, segs, o.Params, build)
	if err != nil {
		return nil, fmt.Errorf("protoclust: clustering: %w", err)
	}
	stage("cluster", start)
	return &Analysis{result: res, trace: tr, segs: segs, timings: timings}, nil
}

// Timings returns the wall-clock duration of each pipeline stage, in
// execution order.
func (a *Analysis) Timings() []StageTiming { return a.timings }

// NewAnalysis assembles an Analysis from a pipeline result computed
// outside AnalyzeContext — the configuration-sweep harness segments and
// builds the dissimilarity matrix once per (segmenter, pool) group and
// runs core.ClusterPoolContext per configuration, then wraps each
// result here so Report, Evaluate, and the render helpers produce
// byte-identical output to a direct AnalyzeContext run. tr must be the
// (deduplicated) trace the segments came from.
func NewAnalysis(tr *Trace, segs []Segment, res *core.Result) *Analysis {
	return &Analysis{result: res, trace: tr, segs: segs}
}

// Result exposes the underlying pipeline result for metric packages
// (internal validity, external ARI/V-measure) that operate below the
// Analysis surface.
func (a *Analysis) Result() *core.Result { return a.result }

// NewSegmenter returns the named segmenter.
func NewSegmenter(name string) (segment.Segmenter, error) {
	switch name {
	case SegmenterTruth:
		return segment.GroundTruth{}, nil
	case SegmenterNEMESYS:
		return &nemesys.Segmenter{}, nil
	case SegmenterNetzob:
		return &netzob.Segmenter{}, nil
	case SegmenterCSP:
		return &csp.Segmenter{}, nil
	default:
		return nil, fmt.Errorf("protoclust: unknown segmenter %q", name)
	}
}

// PseudoTypes returns the inferred clusters.
func (a *Analysis) PseudoTypes() []PseudoType {
	out := make([]PseudoType, 0, len(a.result.Clusters))
	for _, c := range a.result.Clusters {
		pt := PseudoType{ID: c.ID, Segments: c.Segments}
		for _, idx := range c.UniqueIndexes {
			pt.UniqueValues = append(pt.UniqueValues, a.result.Pool.Unique[idx].Bytes())
		}
		out = append(out, pt)
	}
	return out
}

// Segments returns every field candidate the segmenter produced,
// including those later excluded or classified as noise.
func (a *Analysis) Segments() []Segment { return a.segs }

// Noise returns the segment occurrences DBSCAN rejected as noise.
func (a *Analysis) Noise() []Segment { return a.result.Noise }

// Epsilon returns the auto-configured DBSCAN ε.
func (a *Analysis) Epsilon() float64 { return a.result.Config.Epsilon }

// MinSamples returns the auto-configured DBSCAN min_samples.
func (a *Analysis) MinSamples() int { return a.result.Config.MinSamples }

// UniqueSegments returns the number of deduplicated segments that
// entered clustering (the paper's "fields" column in Table I).
func (a *Analysis) UniqueSegments() int { return a.result.Pool.Size() }

// Coverage returns the fraction of trace bytes covered by clustered
// segments (Section IV-A).
func (a *Analysis) Coverage() float64 { return eval.Coverage(a.result, a.trace) }

// ECDFCurve returns the Figure 2 diagnostic series: the selected k-NN
// ECDF (x, y), its smoothed version, and the knee index (-1 if the ε
// fallback was used).
func (a *Analysis) ECDFCurve() (x, y, smoothed []float64, kneeIndex int) {
	c := a.result.Config.Curve
	return c.X, c.Y, c.Smoothed, c.KneeIndex
}

// WriteClusterComposition renders each cluster's composition by true
// data type (requires ground-truth dissections; unknown otherwise) —
// the inspection view used throughout the paper's result discussion.
func (a *Analysis) WriteClusterComposition(w io.Writer) error {
	return report.WriteClusterComposition(w, a.result)
}

// WriteClusterDump renders up to maxMessages trace messages as hex with
// every byte colored (or tagged, when color is false) by the pseudo
// data type of its covering segment — the message-structure view for
// visual analysis.
func (a *Analysis) WriteClusterDump(w io.Writer, maxMessages int, color bool) error {
	return report.WriteClusterDump(w, a.result, maxMessages, color)
}

// Metrics holds evaluation statistics against ground truth.
type Metrics struct {
	// Precision, Recall, and FScore are the combinatorial cluster
	// statistics (F-score with β = 1/4, Section IV-A).
	Precision float64
	Recall    float64
	FScore    float64
	// Coverage is the analyzed-bytes ratio.
	Coverage float64
}

// Evaluate compares the analysis against the trace's ground-truth
// dissection (available for generated traces).
func (a *Analysis) Evaluate() Metrics {
	m := eval.EvaluateResult(a.result)
	return Metrics{
		Precision: m.Precision,
		Recall:    m.Recall,
		FScore:    m.FScore,
		Coverage:  a.Coverage(),
	}
}

// GenerateTrace produces a synthetic ground-truth trace for one of the
// built-in protocols: dhcp, dns, nbns, ntp, smb, awdl, au.
func GenerateTrace(protocol string, n int, seed int64) (*Trace, error) {
	return protocols.Generate(protocol, n, seed)
}

// Protocols lists the built-in trace generators.
func Protocols() []string { return protocols.Names() }

// ReadPCAP extracts UDP/TCP payloads from a classic pcap stream into a
// trace. The optional filter receives each payload and returns whether
// to keep it (nil keeps everything).
func ReadPCAP(r io.Reader, filter func(srcAddr, dstAddr string, payload []byte) bool) (*Trace, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("protoclust: %w", err)
	}
	tr := &Trace{Protocol: "pcap"}
	for {
		pkt, err := pr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("protoclust: %w", err)
		}
		pl, err := pcap.ExtractPayload(pkt)
		if err != nil || pl == nil {
			continue // skip undecodable frames
		}
		if filter != nil && !filter(pl.SrcAddr, pl.DstAddr, pl.Data) {
			continue
		}
		tr.Messages = append(tr.Messages, &Message{
			Data:      pl.Data,
			Timestamp: pl.Timestamp,
			SrcAddr:   pl.SrcAddr,
			DstAddr:   pl.DstAddr,
		})
	}
	return tr, nil
}

// FieldHunterResult is the rule-based baseline outcome.
type FieldHunterResult struct {
	// Fields lists the inferred (offset, width, kind) deductions.
	Fields []fieldhunter.Inferred
	// Coverage is the byte coverage of the inferred fields.
	Coverage float64
}

// RunFieldHunter applies the re-implemented FieldHunter baseline
// (Section IV-D). It fails with fieldhunter.ErrNoContext on traces
// without IP encapsulation, like AWDL and AU.
func RunFieldHunter(tr *Trace) (*FieldHunterResult, error) {
	res, err := fieldhunter.Analyze(tr)
	if err != nil {
		return nil, err
	}
	return &FieldHunterResult{Fields: res.Fields, Coverage: res.Coverage(tr)}, nil
}

// SemanticDeduction is a deduced cluster semantic (the paper's first
// future-work direction: combining clustering with FieldHunter-style
// intra-/inter-message semantics).
type SemanticDeduction struct {
	// ClusterID references the pseudo data type.
	ClusterID int
	// Label names the deduced semantic: constant, enumeration,
	// length-field, counter, timestamp, host-id, char-sequence, or
	// unknown.
	Label string
	// Confidence is a rule-specific score in (0, 1].
	Confidence float64
	// Detail explains the evidence.
	Detail string
}

// DeduceSemantics labels every pseudo data type with a likely semantic
// by testing cluster-wide rules (value/length correlation, monotone
// counters, capture-time correlation, endpoint bijection, printability,
// value-set cardinality).
func (a *Analysis) DeduceSemantics() []SemanticDeduction {
	ds := semantics.DeduceAll(a.result)
	out := make([]SemanticDeduction, len(ds))
	for i, d := range ds {
		out[i] = SemanticDeduction{
			ClusterID:  d.ClusterID,
			Label:      string(d.Label),
			Confidence: d.Confidence,
			Detail:     d.Detail,
		}
	}
	return out
}

// ValueModel is a per-cluster value generation model (the paper's
// second future-work direction), usable to sample plausible field
// values for fuzzing and to score observed values for misbehavior
// detection.
type ValueModel = valuemodel.Model

// TrainValueModel learns a value generation model from all of the
// pseudo data type's segment occurrences (duplicates weight frequent
// values).
func (p *PseudoType) TrainValueModel() (*ValueModel, error) {
	values := make([][]byte, 0, len(p.Segments))
	for _, s := range p.Segments {
		values = append(values, s.Bytes())
	}
	return valuemodel.Train(values)
}

// Field-type classification and recognition (the paper's first
// future-work direction): templates trained on one clustered trace
// recognize the field types of another.
type (
	// FieldTemplates is a set of per-cluster field-type templates — a
	// semantics label, an order-2 Markov value model, and summary
	// statistics per template — trained from a clustered trace.
	FieldTemplates = format.TemplateSet
	// FieldTemplate is one template of a FieldTemplates set.
	FieldTemplate = format.Template
	// FormatSchema is the versioned machine-readable message-format
	// schema recognition emits.
	FormatSchema = format.Schema
	// FormatRecognition is the outcome of recognizing a trace's fields
	// against a template set: the schema plus per-cluster assignments.
	FormatRecognition = format.Recognition
	// FormatAssignment maps one cluster to a template (or unknown).
	FormatAssignment = format.Assignment
)

// LearnTemplates trains field-type templates from this analysis's
// clusters. The returned set can be saved with its Save method and
// later applied to a different trace's analysis via RecognizeWith.
func (a *Analysis) LearnTemplates() (*FieldTemplates, error) {
	return format.Learn(a.result, a.trace)
}

// RecognizeWith classifies this analysis's clusters against templates
// (typically trained on a different trace of the same protocol) and
// tiles every message into a field layout, yielding the message-format
// schema. Clusters matching no template above its calibrated threshold
// are reported as unknown rather than mislabeled.
func (a *Analysis) RecognizeWith(ts *FieldTemplates) (*FormatRecognition, error) {
	return format.Recognize(a.result, a.trace, ts)
}

// LoadTemplates reads a template set saved by FieldTemplates.Save.
func LoadTemplates(r io.Reader) (*FieldTemplates, error) {
	return format.Load(r)
}

// MessageTypes is the outcome of message-type clustering.
type MessageTypes struct {
	// Types groups the trace's messages by inferred message type.
	Types [][]*Message
	// Noise holds messages that matched no type.
	Noise []*Message
	// Epsilon is the DBSCAN radius used for the message matrix.
	Epsilon float64
}

// ClusterMessageTypes groups whole messages into message types
// (NEMETYL-style), the complementary analysis the paper delegates to
// prior work (Section II). Splitting a trace by message type before
// field-type clustering sharpens per-type value distributions:
//
//	mt, _ := protoclust.ClusterMessageTypes(ctx, tr, opts)
//	for _, group := range mt.Types {
//		sub := &protoclust.Trace{Protocol: tr.Protocol, Messages: group}
//		analysis, _ := protoclust.AnalyzeContext(ctx, sub, opts)
//		...
//	}
//
// ctx cancels the segmentation the message types are built from.
func ClusterMessageTypes(ctx context.Context, tr *Trace, o Options) (*MessageTypes, error) {
	if tr == nil || len(tr.Messages) == 0 {
		return nil, errors.New("protoclust: empty trace")
	}
	if o.Segmenter == "" {
		o.Segmenter = SegmenterNEMESYS
	}
	if !o.NoDeduplicate {
		tr = tr.Deduplicate()
	}
	seg, err := NewSegmenter(o.Segmenter)
	if err != nil {
		return nil, err
	}
	res, err := msgtype.Cluster(ctx, tr, seg, msgtype.Params{Penalty: o.Params.Penalty})
	if err != nil {
		return nil, err
	}
	return &MessageTypes{Types: res.Types, Noise: res.Noise, Epsilon: res.Epsilon}, nil
}

// Report is a self-contained, JSON-serializable summary of an analysis,
// for downstream tooling (dashboards, fuzzer configs, diffing runs).
type Report struct {
	// Messages and TotalBytes describe the (deduplicated) trace.
	Messages   int `json:"messages"`
	TotalBytes int `json:"total_bytes"`
	// UniqueSegments is the clustering population size.
	UniqueSegments int `json:"unique_segments"`
	// Epsilon and MinSamples are the auto-configured DBSCAN parameters.
	Epsilon    float64 `json:"epsilon"`
	MinSamples int     `json:"min_samples"`
	// Coverage is the analyzed-bytes ratio.
	Coverage float64 `json:"coverage"`
	// NoiseSegments counts unclusterable segment occurrences.
	NoiseSegments int `json:"noise_segments"`
	// PseudoTypes lists the clusters.
	PseudoTypes []ReportCluster `json:"pseudo_types"`
	// Semantics carries the per-cluster deductions.
	Semantics []SemanticDeduction `json:"semantics,omitempty"`
}

// ReportCluster summarizes one pseudo data type in a Report.
type ReportCluster struct {
	ID             int      `json:"id"`
	Segments       int      `json:"segments"`
	DistinctValues int      `json:"distinct_values"`
	MinLength      int      `json:"min_length"`
	MaxLength      int      `json:"max_length"`
	SampleValues   []string `json:"sample_values"`
}

// Report builds the serializable summary, including up to sampleValues
// hex samples per cluster and the semantic deductions.
func (a *Analysis) Report(sampleValues int) *Report {
	r := &Report{
		Messages:       len(a.trace.Messages),
		TotalBytes:     a.trace.TotalBytes(),
		UniqueSegments: a.UniqueSegments(),
		Epsilon:        a.Epsilon(),
		MinSamples:     a.MinSamples(),
		Coverage:       a.Coverage(),
		NoiseSegments:  len(a.Noise()),
		Semantics:      a.DeduceSemantics(),
	}
	for _, pt := range a.PseudoTypes() {
		rc := ReportCluster{
			ID:             pt.ID,
			Segments:       len(pt.Segments),
			DistinctValues: len(pt.UniqueValues),
			SampleValues:   pt.SampleValues(sampleValues),
			MinLength:      1 << 30,
		}
		for _, v := range pt.UniqueValues {
			if len(v) < rc.MinLength {
				rc.MinLength = len(v)
			}
			if len(v) > rc.MaxLength {
				rc.MaxLength = len(v)
			}
		}
		if rc.DistinctValues == 0 {
			rc.MinLength = 0
		}
		r.PseudoTypes = append(r.PseudoTypes, rc)
	}
	return r
}
