package format

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"protoclust/internal/core"
	"protoclust/internal/dissim"
	"protoclust/internal/netmsg"
	"protoclust/internal/protocols"
	"protoclust/internal/segment"
)

// clusterTrace runs the ground-truth-segmented clustering pipeline on a
// generated trace, mirroring the golden harness.
func clusterTrace(t *testing.T, protocol string, n int, seed int64) (*core.Result, *netmsg.Trace) {
	t.Helper()
	tr, err := protocols.Generate(protocol, n, seed)
	if err != nil {
		t.Fatalf("generate %s: %v", protocol, err)
	}
	dd := tr.Deduplicate()
	segs, err := segment.GroundTruth{}.Segment(context.Background(), dd)
	if err != nil {
		t.Fatalf("segment %s: %v", protocol, err)
	}
	pool := dissim.NewPool(segs)
	p := core.DefaultParams()
	m, err := dissim.ComputeMatrixContext(context.Background(), pool, dissim.Config{Penalty: p.Penalty})
	if err != nil {
		t.Fatalf("matrix %s: %v", protocol, err)
	}
	res, err := core.ClusterPoolContext(context.Background(), pool, m, p)
	if cerr := m.Close(); cerr != nil {
		t.Fatalf("close matrix %s: %v", protocol, cerr)
	}
	if err != nil {
		t.Fatalf("cluster %s: %v", protocol, err)
	}
	return res, dd
}

func learn(t *testing.T, protocol string, n int, seed int64) (*TemplateSet, *core.Result, *netmsg.Trace) {
	t.Helper()
	res, tr := clusterTrace(t, protocol, n, seed)
	ts, err := Learn(res, tr)
	if err != nil {
		t.Fatalf("learn: %v", err)
	}
	return ts, res, tr
}

func TestLearnTemplates(t *testing.T) {
	ts, res, _ := learn(t, "ntp", 100, 1)
	if ts.Version != Version {
		t.Errorf("version = %q, want %q", ts.Version, Version)
	}
	if ts.Protocol != "ntp" {
		t.Errorf("protocol = %q, want ntp", ts.Protocol)
	}
	if len(ts.Templates) == 0 || len(ts.Templates) > len(res.Clusters) {
		t.Fatalf("got %d templates from %d clusters", len(ts.Templates), len(res.Clusters))
	}
	withTruth := 0
	for _, tm := range ts.Templates {
		if tm.Model == nil {
			t.Errorf("template %d: nil model", tm.ID)
		}
		if len(tm.Lengths) == 0 {
			t.Errorf("template %d: empty length distribution", tm.ID)
		}
		if tm.Threshold < minThreshold || tm.Threshold > maxThreshold {
			t.Errorf("template %d: threshold %g outside [%g, %g]", tm.ID, tm.Threshold, minThreshold, maxThreshold)
		}
		if tm.Label == "" {
			t.Errorf("template %d: empty label", tm.ID)
		}
		if tm.DistinctValues <= 0 || tm.Occurrences < tm.DistinctValues {
			t.Errorf("template %d: distinct=%d occurrences=%d", tm.ID, tm.DistinctValues, tm.Occurrences)
		}
		if tm.TrueType != "" {
			withTruth++
		}
	}
	if withTruth == 0 {
		t.Error("no template recorded a ground-truth type on a generated trace")
	}
}

func TestLearnNoClusters(t *testing.T) {
	if _, err := Learn(nil, nil); err != ErrNoClusters {
		t.Errorf("Learn(nil) = %v, want ErrNoClusters", err)
	}
	if _, err := Learn(&core.Result{}, nil); err != ErrNoClusters {
		t.Errorf("Learn(empty) = %v, want ErrNoClusters", err)
	}
}

// TestSelfRecognition classifies the training trace against its own
// templates: nearly everything must be assigned and type-accurate.
func TestSelfRecognition(t *testing.T) {
	ts, res, tr := learn(t, "ntp", 100, 1)
	rec, err := Recognize(res, tr, ts)
	if err != nil {
		t.Fatalf("recognize: %v", err)
	}
	assigned := 0
	for _, a := range rec.Assignments {
		if !a.Unknown() {
			assigned++
		}
	}
	if assigned < len(rec.Assignments) {
		t.Errorf("self-recognition assigned %d/%d clusters", assigned, len(rec.Assignments))
	}
	m := rec.Evaluate()
	if acc := m.TypeAccuracy(); acc < 0.95 {
		t.Errorf("self-recognition type accuracy %.3f, want >= 0.95", acc)
	}
}

// TestCrossRecognition is the headline scenario: train on one trace,
// recognize a different trace of the same protocol.
func TestCrossRecognition(t *testing.T) {
	for _, protocol := range []string{"ntp", "dns", "nbns", "modbus"} {
		t.Run(protocol, func(t *testing.T) {
			ts, _, _ := learn(t, protocol, 100, 1)
			res2, tr2 := clusterTrace(t, protocol, 100, 2)
			rec, err := Recognize(res2, tr2, ts)
			if err != nil {
				t.Fatalf("recognize: %v", err)
			}
			m := rec.Evaluate()
			if acc := m.TypeAccuracy(); acc < 0.7 {
				t.Errorf("cross-trace type accuracy %.3f, want >= 0.7", acc)
			}
			if cov := m.ByteCoverage(); cov < 0.3 {
				t.Errorf("byte coverage %.3f, want >= 0.3", cov)
			}
			if m.TotalBytes != tr2.TotalBytes() {
				t.Errorf("total bytes %d, want %d", m.TotalBytes, tr2.TotalBytes())
			}
		})
	}
}

// TestSchemaDeterminism repeats the full learn+recognize pipeline and
// requires byte-identical schema JSON.
func TestSchemaDeterminism(t *testing.T) {
	render := func() []byte {
		ts, _, _ := learn(t, "dns", 100, 1)
		res2, tr2 := clusterTrace(t, "dns", 100, 2)
		rec, err := Recognize(res2, tr2, ts)
		if err != nil {
			t.Fatalf("recognize: %v", err)
		}
		var buf bytes.Buffer
		if err := rec.Schema.WriteJSON(&buf); err != nil {
			t.Fatalf("write schema: %v", err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("schema JSON differs between two identical runs")
	}
}

// TestSaveLoadRoundTrip persists a template set and requires the loaded
// copy to produce a byte-identical schema.
func TestSaveLoadRoundTrip(t *testing.T) {
	ts, _, _ := learn(t, "ntp", 100, 1)
	var buf bytes.Buffer
	if err := ts.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	saved := buf.String()
	loaded, err := Load(strings.NewReader(saved))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	if buf2.String() != saved {
		t.Error("template set JSON not stable across save/load/save")
	}

	res2, tr2 := clusterTrace(t, "ntp", 100, 2)
	render := func(set *TemplateSet) []byte {
		rec, err := Recognize(res2, tr2, set)
		if err != nil {
			t.Fatalf("recognize: %v", err)
		}
		var b bytes.Buffer
		if err := rec.Schema.WriteJSON(&b); err != nil {
			t.Fatalf("write schema: %v", err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(render(ts), render(loaded)) {
		t.Error("loaded template set recognizes differently from the original")
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"version":"bogus/9"}`)); err == nil {
		t.Error("Load accepted an unknown version")
	}
	if _, err := Load(strings.NewReader(`{`)); err == nil {
		t.Error("Load accepted malformed JSON")
	}
}

func TestClassifyUnknownFallback(t *testing.T) {
	ts, _, _ := learn(t, "ntp", 100, 1)
	// A value population unlike anything in an NTP trace: long,
	// high-entropy-looking, alternating-byte strings of a length no NTP
	// field exhibits.
	values := [][]byte{}
	for i := 0; i < 16; i++ {
		v := make([]byte, 23)
		for j := range v {
			v[j] = byte(17*i+29*j) | 0x80
		}
		values = append(values, v)
	}
	a := ts.classifyStats(99, newStats(values, values))
	if !a.Unknown() {
		t.Errorf("alien cluster assigned template %d (%s, confidence %.3f), want unknown",
			a.TemplateID, a.Label, a.Confidence)
	}
	if a.ClusterID != 99 {
		t.Errorf("cluster id = %d, want 99", a.ClusterID)
	}
}

func TestTileMessageFillsGaps(t *testing.T) {
	msg := &netmsg.Message{Data: make([]byte, 12)}
	fs := []FieldDescriptor{
		{Offset: 4, Length: 2, Type: "enumeration", TemplateID: 1, Confidence: 0.9},
		{Offset: 8, Length: 2, Type: "constant", TemplateID: 0, Confidence: 1},
	}
	out := tileMessage(msg, fs)
	wantSig := "4:unknown|2:enumeration|2:unknown|2:constant|2:unknown"
	if got := signature(out); got != wantSig {
		t.Errorf("signature = %q, want %q", got, wantSig)
	}
	pos := 0
	for _, f := range out {
		if f.Offset != pos {
			t.Errorf("field at offset %d, expected %d (layout must tile)", f.Offset, pos)
		}
		pos = f.Offset + f.Length
	}
	if pos != len(msg.Data) {
		t.Errorf("layout covers %d bytes, message has %d", pos, len(msg.Data))
	}
}

func TestSignatureEmpty(t *testing.T) {
	if got := signature(nil); got != "empty" {
		t.Errorf("signature(nil) = %q, want empty", got)
	}
}

func TestRecognizeValidatesInput(t *testing.T) {
	ts := &TemplateSet{Version: Version}
	if _, err := Recognize(&core.Result{}, nil, ts); err == nil {
		t.Error("Recognize accepted an empty template set")
	}
	if _, err := Recognize(nil, nil, ts); err == nil {
		t.Error("Recognize accepted a nil result")
	}
}
