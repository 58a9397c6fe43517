package protoclust_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"protoclust"
	"protoclust/internal/dissim"
	"protoclust/internal/pcap"
)

func TestProtocolsList(t *testing.T) {
	ps := protoclust.Protocols()
	if len(ps) != 8 {
		t.Fatalf("Protocols = %v, want 8 entries (7 paper + modbus extension)", ps)
	}
}

func TestGenerateTraceUnknown(t *testing.T) {
	if _, err := protoclust.GenerateTrace("http3", 10, 1); err == nil {
		t.Error("unknown protocol should error")
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	if _, err := protoclust.AnalyzeContext(context.Background(), &protoclust.Trace{}, protoclust.DefaultOptions()); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := protoclust.AnalyzeContext(context.Background(), nil, protoclust.DefaultOptions()); err == nil {
		t.Error("nil trace should error")
	}
}

func TestAnalyzeUnknownSegmenter(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = "wireshark"
	if _, err := protoclust.AnalyzeContext(context.Background(), tr, o); err == nil {
		t.Error("unknown segmenter should error")
	}
}

// TestAnalyzeUnknownClusterer requires an unknown clusterer to be
// rejected before segmentation: the cancelled context would fail the
// truth segmenter, and the matrix builder must never run.
func TestAnalyzeUnknownClusterer(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	o.Params.Clusterer = "kmeans"
	builds := 0
	build := func(ctx context.Context, pool *dissim.Pool, cfg dissim.Config) (*dissim.Matrix, error) {
		builds++
		return dissim.ComputeMatrixContext(ctx, pool, cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const want = `core: unknown clusterer "kmeans"`
	if _, err := protoclust.AnalyzeWithMatrixBuilder(ctx, tr, o, build); err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
	if builds != 0 {
		t.Errorf("matrix built %d times before the clusterer was checked", builds)
	}
}

func TestAnalyzeZeroOptionsGetDefaults(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := protoclust.AnalyzeContext(context.Background(), tr, protoclust.Options{})
	if err != nil {
		t.Fatalf("Analyze with zero options: %v", err)
	}
	if a.Epsilon() <= 0 {
		t.Errorf("epsilon = %v, want > 0", a.Epsilon())
	}
}

func TestAnalyzeTruthNTP(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	a, err := protoclust.AnalyzeContext(context.Background(), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.PseudoTypes()) == 0 {
		t.Fatal("no pseudo types found")
	}
	m := a.Evaluate()
	if m.Precision < 0.95 {
		t.Errorf("NTP truth-segment precision = %.2f, want ≥ 0.95 (Table I)", m.Precision)
	}
	if m.FScore < 0.9 {
		t.Errorf("NTP truth-segment F-score = %.2f, want ≥ 0.9 (Table I)", m.FScore)
	}
	if m.Coverage <= 0.5 {
		t.Errorf("coverage = %.2f, want > 0.5", m.Coverage)
	}
}

func TestAnalyzeHeuristicSegmenters(t *testing.T) {
	tr, err := protoclust.GenerateTrace("nbns", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range []string{protoclust.SegmenterNEMESYS, protoclust.SegmenterNetzob, protoclust.SegmenterCSP} {
		t.Run(seg, func(t *testing.T) {
			o := protoclust.DefaultOptions()
			o.Segmenter = seg
			a, err := protoclust.AnalyzeContext(context.Background(), tr, o)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if a.UniqueSegments() == 0 {
				t.Error("no unique segments")
			}
			if cov := a.Coverage(); cov <= 0 || cov > 1 {
				t.Errorf("coverage = %v out of range", cov)
			}
		})
	}
}

func TestAnalyzeBudgetErrorSurfaces(t *testing.T) {
	// Netzob on the AU trace exceeds its alignment budget — the paper's
	// "fails" cell must surface as ErrBudgetExceeded.
	tr, err := protoclust.GenerateTrace("au", 123, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterNetzob
	_, err = protoclust.AnalyzeContext(context.Background(), tr, o)
	if !errors.Is(err, protoclust.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestPseudoTypeSampleValues(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 80, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	a, err := protoclust.AnalyzeContext(context.Background(), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range a.PseudoTypes() {
		s := pt.SampleValues(2)
		if len(s) > 2 {
			t.Errorf("SampleValues(2) returned %d values", len(s))
		}
		huge := pt.SampleValues(1 << 20)
		if len(huge) != len(pt.UniqueValues) {
			t.Errorf("SampleValues(huge) = %d, want all %d", len(huge), len(pt.UniqueValues))
		}
	}
}

func TestECDFCurveAccessor(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	a, err := protoclust.AnalyzeContext(context.Background(), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	x, y, sm, knee := a.ECDFCurve()
	if len(x) == 0 || len(x) != len(y) || len(y) != len(sm) {
		t.Fatalf("curve lengths: x=%d y=%d sm=%d", len(x), len(y), len(sm))
	}
	if knee >= len(x) {
		t.Errorf("knee index %d out of range", knee)
	}
}

func TestReadPCAP(t *testing.T) {
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkTypeEthernet)
	payloads := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10}}
	for i, p := range payloads {
		frame, err := pcap.BuildUDPFrame(net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 0, 2), 999, 123, p)
		if err != nil {
			t.Fatal(err)
		}
		pkt := &pcap.Packet{Timestamp: time.Unix(int64(i), 0), Data: frame}
		if err := w.WritePacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := protoclust.ReadPCAP(&buf, nil)
	if err != nil {
		t.Fatalf("ReadPCAP: %v", err)
	}
	if len(tr.Messages) != 3 {
		t.Fatalf("read %d messages, want 3", len(tr.Messages))
	}
	if !bytes.Equal(tr.Messages[0].Data, payloads[0]) {
		t.Errorf("payload mismatch: %x", tr.Messages[0].Data)
	}
	if tr.Messages[0].SrcAddr != "10.0.0.1:999" {
		t.Errorf("SrcAddr = %q", tr.Messages[0].SrcAddr)
	}
}

func TestReadPCAPFilter(t *testing.T) {
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkTypeEthernet)
	for i, port := range []uint16{53, 123, 53} {
		frame, err := pcap.BuildUDPFrame(net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 0, 2), 5000, port, []byte{byte(i), 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(&pcap.Packet{Timestamp: time.Unix(int64(i), 0), Data: frame}); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := protoclust.ReadPCAP(&buf, func(src, dst string, payload []byte) bool {
		return dst == "10.0.0.2:53"
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Messages) != 2 {
		t.Errorf("filtered to %d messages, want 2", len(tr.Messages))
	}
}

func TestReadPCAPBadStream(t *testing.T) {
	if _, err := protoclust.ReadPCAP(bytes.NewReader([]byte("not a pcap")), nil); err == nil {
		t.Error("garbage input should error")
	}
}

func TestRunFieldHunter(t *testing.T) {
	tr, err := protoclust.GenerateTrace("dns", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := protoclust.RunFieldHunter(tr)
	if err != nil {
		t.Fatalf("RunFieldHunter: %v", err)
	}
	if len(res.Fields) == 0 {
		t.Error("FieldHunter found nothing on DNS")
	}
	if res.Coverage <= 0 || res.Coverage > 0.3 {
		t.Errorf("FieldHunter coverage = %v, want small positive", res.Coverage)
	}
}

func TestRunFieldHunterNoContext(t *testing.T) {
	tr, err := protoclust.GenerateTrace("awdl", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := protoclust.RunFieldHunter(tr); err == nil {
		t.Error("AWDL (no IP context) should fail FieldHunter")
	}
}

// TestCoverageExceedsFieldHunter is the repository's headline invariant:
// clustering coverage beats the rule-based baseline by a large factor
// (Section IV-D).
func TestCoverageExceedsFieldHunter(t *testing.T) {
	tr, err := protoclust.GenerateTrace("dns", 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := protoclust.RunFieldHunter(tr)
	if err != nil {
		t.Fatal(err)
	}
	a, err := protoclust.AnalyzeContext(context.Background(), tr, protoclust.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Coverage() < 5*fh.Coverage {
		t.Errorf("clustering coverage %.2f not ≫ FieldHunter %.2f", a.Coverage(), fh.Coverage)
	}
}

func TestDeduceSemantics(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	a, err := protoclust.AnalyzeContext(context.Background(), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	ds := a.DeduceSemantics()
	if len(ds) != len(a.PseudoTypes()) {
		t.Fatalf("deductions = %d, want one per cluster (%d)", len(ds), len(a.PseudoTypes()))
	}
	named := 0
	for _, d := range ds {
		if d.Label == "" {
			t.Error("empty label")
		}
		if d.Label != "unknown" {
			named++
		}
	}
	if named == 0 {
		t.Error("no cluster received a semantic label on NTP")
	}
}

func TestTrainValueModel(t *testing.T) {
	tr, err := protoclust.GenerateTrace("dns", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	a, err := protoclust.AnalyzeContext(context.Background(), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	pts := a.PseudoTypes()
	if len(pts) == 0 {
		t.Fatal("no pseudo types")
	}
	m, err := pts[0].TrainValueModel()
	if err != nil {
		t.Fatalf("TrainValueModel: %v", err)
	}
	// Every training value must be scored as seen and finite.
	if !m.Seen(pts[0].UniqueValues[0]) {
		t.Error("training value not recognized by the model")
	}
	rng := rand.New(rand.NewSource(4))
	if v := m.Generate(rng); len(v) == 0 {
		t.Error("generated empty value")
	}
}

func TestSegmentsAccessor(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	a, err := protoclust.AnalyzeContext(context.Background(), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Segments()) == 0 {
		t.Error("Segments() empty")
	}
}

func TestClusterMessageTypes(t *testing.T) {
	tr, err := protoclust.GenerateTrace("dns", 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	mt, err := protoclust.ClusterMessageTypes(context.Background(), tr, o)
	if err != nil {
		t.Fatalf("ClusterMessageTypes: %v", err)
	}
	if len(mt.Types) < 2 {
		t.Errorf("DNS message types = %d, want ≥ 2 (query/response)", len(mt.Types))
	}
	if mt.Epsilon <= 0 {
		t.Errorf("epsilon = %v", mt.Epsilon)
	}
	// Per-type sub-analysis must be possible.
	for _, group := range mt.Types {
		if len(group) < 10 {
			continue
		}
		sub := &protoclust.Trace{Protocol: tr.Protocol, Messages: group}
		if _, err := protoclust.AnalyzeContext(context.Background(), sub, o); err != nil {
			t.Errorf("per-type analysis failed: %v", err)
		}
	}
}

func TestClusterMessageTypesEmpty(t *testing.T) {
	if _, err := protoclust.ClusterMessageTypes(context.Background(), &protoclust.Trace{}, protoclust.DefaultOptions()); err == nil {
		t.Error("empty trace should error")
	}
}

func TestAnalysisReport(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	a, err := protoclust.AnalyzeContext(context.Background(), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	r := a.Report(2)
	if r.Messages == 0 || r.TotalBytes == 0 || r.UniqueSegments == 0 {
		t.Errorf("report not populated: %+v", r)
	}
	if len(r.PseudoTypes) != len(a.PseudoTypes()) {
		t.Errorf("report clusters = %d, want %d", len(r.PseudoTypes), len(a.PseudoTypes()))
	}
	for _, c := range r.PseudoTypes {
		if len(c.SampleValues) > 2 {
			t.Errorf("cluster %d carries %d samples, want ≤ 2", c.ID, len(c.SampleValues))
		}
		if c.MinLength > c.MaxLength {
			t.Errorf("cluster %d length range inverted: %d..%d", c.ID, c.MinLength, c.MaxLength)
		}
	}
	if len(r.Semantics) != len(r.PseudoTypes) {
		t.Errorf("semantics = %d, want %d", len(r.Semantics), len(r.PseudoTypes))
	}
}

func TestAnalyzeContextCanceled(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := protoclust.AnalyzeContext(ctx, tr, protoclust.DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAnalyzeContextDeadline(t *testing.T) {
	tr, err := protoclust.GenerateTrace("smb", 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := protoclust.AnalyzeContext(ctx, tr, protoclust.DefaultOptions()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestAnalyzeRecordsStageTimings(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := protoclust.DefaultOptions()
	opts.Segmenter = protoclust.SegmenterTruth
	a, err := protoclust.AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	stages := a.Timings()
	want := []string{"deduplicate", "segment", "cluster"}
	if len(stages) != len(want) {
		t.Fatalf("got %d stages, want %d", len(stages), len(want))
	}
	for i, s := range stages {
		if s.Stage != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Stage, want[i])
		}
		if s.Duration < 0 {
			t.Errorf("stage %q has negative duration", s.Stage)
		}
	}
}
