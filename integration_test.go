package protoclust_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"protoclust"
	"protoclust/internal/pcap"
)

// TestIntegrationGrid exercises the full public pipeline across every
// protocol × segmenter combination on small traces, checking structural
// invariants rather than exact quality numbers:
//
//   - the analysis completes or fails with ErrBudgetExceeded,
//   - every produced pseudo type has members and distinct values,
//   - coverage is a valid ratio,
//   - repeated runs are bit-for-bit deterministic.
func TestIntegrationGrid(t *testing.T) {
	segmenters := []string{
		protoclust.SegmenterTruth,
		protoclust.SegmenterNEMESYS,
		protoclust.SegmenterNetzob,
		protoclust.SegmenterCSP,
	}
	for _, proto := range protoclust.Protocols() {
		for _, seg := range segmenters {
			proto, seg := proto, seg
			t.Run(proto+"/"+seg, func(t *testing.T) {
				t.Parallel()
				tr, err := protoclust.GenerateTrace(proto, 60, 3)
				if err != nil {
					t.Fatal(err)
				}
				o := protoclust.DefaultOptions()
				o.Segmenter = seg
				a, err := protoclust.AnalyzeContext(context.Background(), tr, o)
				if errors.Is(err, protoclust.ErrBudgetExceeded) {
					t.Skipf("segmenter budget exceeded (accepted outcome): %v", err)
				}
				if err != nil {
					t.Fatalf("Analyze: %v", err)
				}
				for _, pt := range a.PseudoTypes() {
					if len(pt.Segments) == 0 {
						t.Errorf("pseudo type %d has no segments", pt.ID)
					}
					if len(pt.UniqueValues) == 0 {
						t.Errorf("pseudo type %d has no values", pt.ID)
					}
					if len(pt.UniqueValues) > len(pt.Segments) {
						t.Errorf("pseudo type %d: more values (%d) than segments (%d)",
							pt.ID, len(pt.UniqueValues), len(pt.Segments))
					}
				}
				if cov := a.Coverage(); cov < 0 || cov > 1 {
					t.Errorf("coverage = %v", cov)
				}

				// Determinism.
				b, err := protoclust.AnalyzeContext(context.Background(), tr, o)
				if err != nil {
					t.Fatalf("second Analyze: %v", err)
				}
				if a.Epsilon() != b.Epsilon() {
					t.Errorf("epsilon differs across runs: %v vs %v", a.Epsilon(), b.Epsilon())
				}
				if len(a.PseudoTypes()) != len(b.PseudoTypes()) {
					t.Errorf("cluster count differs across runs")
				}
			})
		}
	}
}

// TestIntegrationPCAPRoundTrip drives the full path a real user takes:
// generate a trace, encapsulate it into a pcap, read it back via the
// public pcap API, and cluster the recovered payloads.
func TestIntegrationPCAPRoundTrip(t *testing.T) {
	tr, err := protoclust.GenerateTrace("dns", 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkTypeEthernet)
	for i, m := range tr.Messages {
		frame, err := pcap.BuildUDPFrame(net.IPv4(10, 9, 0, 1), net.IPv4(10, 9, 0, 2), uint16(1024+i), 53, m.Data)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(&pcap.Packet{Timestamp: time.Unix(int64(i), 0), Data: frame}); err != nil {
			t.Fatal(err)
		}
	}

	got, err := protoclust.ReadPCAP(&buf, func(src, dst string, payload []byte) bool {
		return strings.HasSuffix(dst, ":53") || strings.HasSuffix(src, ":53")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Messages) != len(tr.Messages) {
		t.Fatalf("recovered %d of %d messages", len(got.Messages), len(tr.Messages))
	}
	for i := range got.Messages {
		if !bytes.Equal(got.Messages[i].Data, tr.Messages[i].Data) {
			t.Fatalf("payload %d corrupted through pcap round trip", i)
		}
	}

	a, err := protoclust.AnalyzeContext(context.Background(), got, protoclust.DefaultOptions())
	if err != nil {
		t.Fatalf("Analyze on recovered trace: %v", err)
	}
	if len(a.PseudoTypes()) == 0 {
		t.Error("no pseudo types from pcap-recovered trace")
	}
}

// TestIntegrationMessageTypeThenFieldType drives the two-stage analysis
// the msgtype package enables: split by message type first, then
// cluster field types per type, and verify each stage's output feeds
// the next.
func TestIntegrationMessageTypeThenFieldType(t *testing.T) {
	tr, err := protoclust.GenerateTrace("dns", 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	mt, err := protoclust.ClusterMessageTypes(context.Background(), tr, o)
	if err != nil {
		t.Fatal(err)
	}
	analyzed := 0
	for _, group := range mt.Types {
		if len(group) < 20 {
			continue
		}
		sub := &protoclust.Trace{Protocol: "dns", Messages: group}
		a, err := protoclust.AnalyzeContext(context.Background(), sub, o)
		if err != nil {
			t.Errorf("per-type analysis: %v", err)
			continue
		}
		analyzed++
		m := a.Evaluate()
		if m.Precision < 0.5 {
			t.Errorf("per-type precision = %.2f suspiciously low", m.Precision)
		}
	}
	if analyzed == 0 {
		t.Error("no message type was large enough to analyze")
	}
}

// TestIntegrationSemanticsAndValueModels drives the two Section V
// extensions end to end on one analysis.
func TestIntegrationSemanticsAndValueModels(t *testing.T) {
	tr, err := protoclust.GenerateTrace("dhcp", 200, 9)
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
		t.Fatalf("deductions %d != clusters %d", len(ds), len(a.PseudoTypes()))
	}
	for _, pt := range a.PseudoTypes() {
		m, err := pt.TrainValueModel()
		if err != nil {
			t.Errorf("TrainValueModel on type %d: %v", pt.ID, err)
			continue
		}
		for _, v := range pt.UniqueValues[:min(3, len(pt.UniqueValues))] {
			if !m.Seen(v) {
				t.Errorf("type %d: training value not Seen", pt.ID)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestIntegrationTruthSidecar drives the external-evaluation path:
// encapsulate a generated trace into pcap, serialize its ground truth
// in the tracegen sidecar format, read both back, and verify Evaluate
// works on the reconstructed trace.
func TestIntegrationTruthSidecar(t *testing.T) {
	orig, err := protoclust.GenerateTrace("ntp", 80, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Pcap round trip.
	var pcapBuf bytes.Buffer
	w := pcap.NewWriter(&pcapBuf, pcap.LinkTypeEthernet)
	for i, m := range orig.Messages {
		frame, err := pcap.BuildUDPFrame(net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 0, 2), uint16(2000+i), 123, m.Data)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(&pcap.Packet{Timestamp: m.Timestamp, Data: frame}); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := protoclust.ReadPCAP(&pcapBuf, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Sidecar in the tracegen format.
	type tf struct {
		Name   string `json:"name"`
		Offset int    `json:"offset"`
		Length int    `json:"length"`
		Type   string `json:"type"`
	}
	type tm struct {
		Index  int    `json:"index"`
		Src    string `json:"src"`
		Dst    string `json:"dst"`
		Fields []tf   `json:"fields"`
	}
	var truth []tm
	for i, m := range orig.Messages {
		e := tm{Index: i, Src: m.SrcAddr, Dst: m.DstAddr}
		for _, f := range m.Fields {
			e.Fields = append(e.Fields, tf{Name: f.Name, Offset: f.Offset, Length: f.Length, Type: string(f.Type)})
		}
		truth = append(truth, e)
	}
	raw, err := json.Marshal(truth)
	if err != nil {
		t.Fatal(err)
	}
	if err := protoclust.AttachTruth(loaded, bytes.NewReader(raw)); err != nil {
		t.Fatalf("AttachTruth: %v", err)
	}
	// Metadata restored from the sidecar.
	if loaded.Messages[0].SrcAddr != orig.Messages[0].SrcAddr {
		t.Errorf("SrcAddr = %q, want %q", loaded.Messages[0].SrcAddr, orig.Messages[0].SrcAddr)
	}

	o := protoclust.DefaultOptions()
	o.Segmenter = protoclust.SegmenterTruth
	a, err := protoclust.AnalyzeContext(context.Background(), loaded, o)
	if err != nil {
		t.Fatalf("Analyze on reconstructed trace: %v", err)
	}
	m := a.Evaluate()
	if m.Precision < 0.95 {
		t.Errorf("reconstructed-trace precision = %.2f, want ≥ 0.95", m.Precision)
	}
}

// TestAttachTruthErrors covers the sidecar failure modes.
func TestAttachTruthErrors(t *testing.T) {
	tr, err := protoclust.GenerateTrace("ntp", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := protoclust.AttachTruth(tr, bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("garbage json should error")
	}
	if err := protoclust.AttachTruth(tr, bytes.NewReader([]byte("[]"))); err == nil {
		t.Error("count mismatch should error")
	}
	bad := []byte(`[{"index":0,"fields":[{"name":"x","offset":0,"length":1,"type":"uint8"}]},{"index":1,"fields":[]},{"index":2,"fields":[]}]`)
	if err := protoclust.AttachTruth(tr, bytes.NewReader(bad)); err == nil {
		t.Error("non-tiling truth should error")
	}
}
