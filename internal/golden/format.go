package golden

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"protoclust/internal/core"
	"protoclust/internal/format"
	"protoclust/internal/netmsg"
	"protoclust/internal/protocols"
	"protoclust/internal/segment"
)

// FormatSpec identifies one golden recognition run: templates are
// trained on the TrainSeed trace and recognize the RecognizeSeed trace
// of the same protocol and size.
type FormatSpec struct {
	Protocol      string `json:"protocol"`
	Messages      int    `json:"messages"`
	TrainSeed     int64  `json:"train_seed"`
	RecognizeSeed int64  `json:"recognize_seed"`
}

// String renders the spec as "format-proto-N".
func (s FormatSpec) String() string {
	return fmt.Sprintf("format-%s-%d", s.Protocol, s.Messages)
}

// FormatRecord is the golden snapshot of one cross-trace recognition.
type FormatRecord struct {
	FormatSpec
	// Templates counts the learned template set; Assigned and Unknown
	// partition the recognized trace's clusters by classification
	// outcome; Formats counts distinct recognized message layouts.
	Templates int `json:"templates"`
	Assigned  int `json:"assigned"`
	Unknown   int `json:"unknown"`
	Formats   int `json:"formats"`
	// TypeAccuracy is the byte-weighted share of classified segments
	// whose template's ground-truth type matches the segment's;
	// ByteCoverage is the share of trace bytes under a non-unknown
	// field.
	TypeAccuracy float64 `json:"type_accuracy"`
	ByteCoverage float64 `json:"byte_coverage"`
}

// DefaultFormatTraces is the golden recognition set: the protocols
// whose generators produce enough value diversity for template
// transfer, trained on seed 1 and recognized on seed 2 at the paper's
// small trace size.
func DefaultFormatTraces() []FormatSpec {
	return []FormatSpec{
		{"ntp", 100, 1, 2}, {"dns", 100, 1, 2}, {"dhcp", 100, 1, 2},
		{"nbns", 100, 1, 2}, {"modbus", 100, 1, 2},
	}
}

// clusterTrace runs the pipeline prefix shared by Run and RunFormat —
// generate, deduplicate, ground-truth segment, dissimilarity matrix on
// backend, auto-configured clustering — and returns the result
// alongside the deduplicated trace it was computed from.
func clusterTrace(ctx context.Context, protocol string, messages int, seed int64, backend string) (*core.Result, *netmsg.Trace, error) {
	tr, err := protocols.Generate(protocol, messages, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("golden: generate %s: %w", protocol, err)
	}
	dd := tr.Deduplicate()
	segs, err := segment.GroundTruth{}.Segment(ctx, dd)
	if err != nil {
		return nil, nil, fmt.Errorf("golden: segment %s: %w", protocol, err)
	}
	p := core.DefaultParams()
	p.MatrixBackend = backend
	res, err := core.ClusterSegmentsContext(ctx, segs, p, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("golden: cluster %s: %w", protocol, err)
	}
	return res, dd, nil
}

// RunFormat executes one golden recognition: cluster the training
// trace, learn templates, cluster the recognition trace, classify its
// clusters against the templates, and evaluate against ground truth.
func RunFormat(ctx context.Context, s FormatSpec) (*FormatRecord, error) {
	trainRes, trainDD, err := clusterTrace(ctx, s.Protocol, s.Messages, s.TrainSeed, "")
	if err != nil {
		return nil, err
	}
	ts, err := format.Learn(trainRes, trainDD)
	if err != nil {
		return nil, fmt.Errorf("golden: learn templates %s: %w", s, err)
	}
	recRes, recDD, err := clusterTrace(ctx, s.Protocol, s.Messages, s.RecognizeSeed, "")
	if err != nil {
		return nil, err
	}
	rec, err := format.Recognize(recRes, recDD, ts)
	if err != nil {
		return nil, fmt.Errorf("golden: recognize %s: %w", s, err)
	}
	out := &FormatRecord{
		FormatSpec: s,
		Templates:  len(ts.Templates),
		Formats:    len(rec.Schema.Formats),
	}
	for _, a := range rec.Assignments {
		if a.Unknown() {
			out.Unknown++
		} else {
			out.Assigned++
		}
	}
	ev := rec.Evaluate()
	out.TypeAccuracy = ev.TypeAccuracy()
	out.ByteCoverage = ev.ByteCoverage()
	return out, nil
}

// CompareFormat returns human-readable violations of got against want;
// the structural counts are deterministic and must match exactly, the
// quality metrics get the shared tolerance band.
func CompareFormat(want, got *FormatRecord, tol Tolerance) []string {
	var v []string
	fail := func(format string, args ...interface{}) {
		v = append(v, fmt.Sprintf(format, args...))
	}
	if got.FormatSpec != want.FormatSpec {
		fail("spec mismatch: golden %v, got %v", want.FormatSpec, got.FormatSpec)
		return v
	}
	if got.Templates != want.Templates {
		fail("templates = %d, golden %d", got.Templates, want.Templates)
	}
	if got.Assigned != want.Assigned {
		fail("assigned clusters = %d, golden %d", got.Assigned, want.Assigned)
	}
	if got.Unknown != want.Unknown {
		fail("unknown clusters = %d, golden %d", got.Unknown, want.Unknown)
	}
	if got.Formats != want.Formats {
		fail("message formats = %d, golden %d", got.Formats, want.Formats)
	}
	metric := func(name string, g, w float64) {
		if math.Abs(g-w) > tol.Metric {
			fail("%s %.4f drifted from golden %.4f (band ±%.3g)", name, g, w, tol.Metric)
		}
	}
	metric("type_accuracy", got.TypeAccuracy, want.TypeAccuracy)
	metric("byte_coverage", got.ByteCoverage, want.ByteCoverage)
	return v
}

// FormatPath returns the golden file path for a format spec inside dir.
func FormatPath(dir string, s FormatSpec) string {
	return filepath.Join(dir, s.String()+".json")
}

// LoadFormat reads one golden format record from path.
func LoadFormat(path string) (*FormatRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec FormatRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("golden: parse %s: %w", path, err)
	}
	return &rec, nil
}

// SaveFormat writes one golden format record to path, creating the
// directory as needed.
func SaveFormat(path string, rec *FormatRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
