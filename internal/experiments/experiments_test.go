package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"protoclust/internal/segment"
	"protoclust/internal/segment/nemesys"
)

func TestTable1Row1NTP(t *testing.T) {
	row, err := Table1Row1(context.Background(), "ntp", 100)
	if err != nil {
		t.Fatalf("Table1Row1: %v", err)
	}
	if row.Protocol != "ntp" || row.Messages != 100 {
		t.Errorf("row identity wrong: %+v", row)
	}
	if row.Fields == 0 || row.Epsilon <= 0 {
		t.Errorf("row not populated: %+v", row)
	}
	if row.Precision < 0.95 {
		t.Errorf("NTP-100 precision = %.2f, want ≥ 0.95 (Table I shape)", row.Precision)
	}
	if row.FScore < 0.9 {
		t.Errorf("NTP-100 F-score = %.2f, want ≥ 0.9", row.FScore)
	}
}

func TestTable1Row1UnknownProtocol(t *testing.T) {
	if _, err := Table1Row1(context.Background(), "quic", 10); err == nil {
		t.Error("unknown protocol should error")
	}
}

func TestTable2Row1AllSegmenters(t *testing.T) {
	for _, seg := range Segmenters() {
		t.Run(seg.Name(), func(t *testing.T) {
			row, err := Table2Row1(context.Background(), "nbns", 100, seg)
			if err != nil {
				t.Fatalf("Table2Row1: %v", err)
			}
			if row.Failed {
				t.Fatalf("%s unexpectedly failed on nbns-100", seg.Name())
			}
			if row.Coverage <= 0 || row.Coverage > 1 {
				t.Errorf("coverage = %v out of range", row.Coverage)
			}
			if row.Precision < 0 || row.Precision > 1 {
				t.Errorf("precision = %v out of range", row.Precision)
			}
		})
	}
}

// TestTable2FailureCells pins the paper's four failing analysis runs
// (Section IV-C): Netzob on DHCP-1000, SMB-1000, and AU; CSP on
// AWDL-768.
func TestTable2FailureCells(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 1000-message traces")
	}
	cases := []struct {
		proto     string
		msgs      int
		segmenter string
		wantFail  bool
	}{
		{"dhcp", 1000, "netzob", true},
		{"smb", 1000, "netzob", true},
		{"au", 123, "netzob", true},
		{"awdl", 768, "csp", true},
		{"dhcp", 100, "netzob", false},
		{"smb", 100, "netzob", false},
		{"awdl", 100, "csp", false},
		{"au", 123, "csp", false},
	}
	for _, c := range cases {
		var seg segment.Segmenter
		for _, s := range Segmenters() {
			if s.Name() == c.segmenter {
				seg = s
			}
		}
		if seg == nil {
			t.Fatalf("no Table II segmenter named %q", c.segmenter)
		}
		row, err := Table2Row1(context.Background(), c.proto, c.msgs, seg)
		if err != nil {
			t.Fatalf("%s-%d/%s: %v", c.proto, c.msgs, c.segmenter, err)
		}
		if row.Failed != c.wantFail {
			t.Errorf("%s-%d/%s: Failed = %v, want %v", c.proto, c.msgs, c.segmenter, row.Failed, c.wantFail)
		}
	}
}

func TestFigure2For(t *testing.T) {
	d, err := Figure2For(context.Background(), "ntp", 100)
	if err != nil {
		t.Fatalf("Figure2For: %v", err)
	}
	if len(d.X) == 0 || len(d.X) != len(d.ECDF) || len(d.ECDF) != len(d.Smoothed) {
		t.Fatalf("series lengths: %d/%d/%d", len(d.X), len(d.ECDF), len(d.Smoothed))
	}
	if d.Epsilon <= 0 {
		t.Errorf("epsilon = %v", d.Epsilon)
	}
	if d.K < 2 {
		t.Errorf("k = %d, want ≥ 2", d.K)
	}
	// ECDF must be monotone and end at 1.
	for i := 1; i < len(d.ECDF); i++ {
		if d.ECDF[i] < d.ECDF[i-1] {
			t.Fatalf("ECDF not monotone at %d", i)
		}
	}
	if d.ECDF[len(d.ECDF)-1] != 1 {
		t.Errorf("ECDF ends at %v, want 1", d.ECDF[len(d.ECDF)-1])
	}
}

func TestFigure3(t *testing.T) {
	examples, err := Figure3(context.Background(), 3)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(examples) == 0 {
		t.Fatal("no examples")
	}
	for _, ex := range examples {
		if len(ex.Hex) != 16 {
			t.Errorf("timestamp hex length = %d, want 16 (8 bytes)", len(ex.Hex))
		}
		if len(ex.InferredBoundaries) == 0 {
			t.Error("example without boundary errors")
		}
		for _, b := range ex.InferredBoundaries {
			if b <= 0 || b >= 8 {
				t.Errorf("boundary %d outside the timestamp interior", b)
			}
		}
	}
}

func TestAverages(t *testing.T) {
	rows := []CoverageRow{
		{Protocol: "a", ClusterCoverage: 0.8, FieldHunterCoverage: 0.02},
		{Protocol: "b", ClusterCoverage: 0.6, FieldHunterCoverage: 0.04},
		{Protocol: "c", ClusterCoverage: 1.0, NoContext: true},
	}
	c, f := Averages(rows)
	if diff := c - 0.8; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("cluster avg = %v, want 0.8", c)
	}
	if diff := f - 0.03; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("fieldhunter avg = %v, want 0.03 (no-context rows excluded)", f)
	}
	c, f = Averages(nil)
	if c != 0 || f != 0 {
		t.Errorf("empty averages = %v/%v", c, f)
	}
}

func TestCoverageComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 1000-message suite")
	}
	rows, err := CoverageComparison(context.Background())
	if err != nil {
		t.Fatalf("CoverageComparison: %v", err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	noCtx := 0
	for _, r := range rows {
		if r.NoContext {
			noCtx++
		}
	}
	if noCtx != 2 {
		t.Errorf("no-context rows = %d, want 2 (awdl, au)", noCtx)
	}
	cAvg, fAvg := Averages(rows)
	if cAvg < 0.5 {
		t.Errorf("average clustering coverage = %.2f, want ≥ 0.5", cAvg)
	}
	if fAvg >= cAvg/5 {
		t.Errorf("FieldHunter avg %.3f not far below clustering avg %.3f", fAvg, cAvg)
	}
}

func TestNEMESYSSegmenterNameMatchesTable(t *testing.T) {
	// The Figure 3 text references NEMESYS by name; keep the wiring
	// honest.
	if (&nemesys.Segmenter{}).Name() != "nemesys" {
		t.Error("unexpected NEMESYS name")
	}
	names := make([]string, 0, 3)
	for _, s := range Segmenters() {
		names = append(names, s.Name())
	}
	if strings.Join(names, ",") != "netzob,nemesys,csp" {
		t.Errorf("segmenter order = %v, want paper's column order", names)
	}
}

// TestTable1Pinned pins the headline Table I rows (EXPERIMENTS.md) with
// tolerances, so regressions in the pipeline or generators surface
// immediately. Skipped with -short (generates 1000-message traces).
func TestTable1Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 1000-message traces")
	}
	cases := []struct {
		proto      string
		msgs       int
		minP, minR float64
		minF       float64
	}{
		{"ntp", 1000, 0.99, 0.85, 0.97},
		{"nbns", 1000, 0.99, 0.80, 0.97},
		{"dns", 1000, 0.99, 0.55, 0.95},
		{"dhcp", 1000, 0.95, 0.65, 0.95},
		{"awdl", 768, 0.99, 0.75, 0.96},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s-%d", c.proto, c.msgs), func(t *testing.T) {
			t.Parallel()
			row, err := Table1Row1(context.Background(), c.proto, c.msgs)
			if err != nil {
				t.Fatal(err)
			}
			if row.Precision < c.minP {
				t.Errorf("P = %.3f, want ≥ %.2f", row.Precision, c.minP)
			}
			if row.Recall < c.minR {
				t.Errorf("R = %.3f, want ≥ %.2f", row.Recall, c.minR)
			}
			if row.FScore < c.minF {
				t.Errorf("F = %.3f, want ≥ %.2f", row.FScore, c.minF)
			}
		})
	}
}

// TestTable1SMBWorstCase pins the designated failure case: SMB must
// stay the worst protocol, with high recall but collapsed precision —
// the paper's "timestamps and signatures in one cluster" phenomenon.
func TestTable1SMBWorstCase(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 1000-message traces")
	}
	row, err := Table1Row1(context.Background(), "smb", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if row.Precision > 0.7 {
		t.Errorf("SMB-1000 precision = %.2f; if this improved past 0.7, update EXPERIMENTS.md", row.Precision)
	}
	if row.Recall < 0.5 {
		t.Errorf("SMB-1000 recall = %.2f, want the collapse pattern (high recall)", row.Recall)
	}
}

func TestSeedSweep(t *testing.T) {
	row, err := SeedSweep(context.Background(), "ntp", 100, []int64{1, 2, 3})
	if err != nil {
		t.Fatalf("SeedSweep: %v", err)
	}
	if row.Seeds != 3 {
		t.Errorf("Seeds = %d", row.Seeds)
	}
	if row.MeanP < 0.9 {
		t.Errorf("mean precision = %.2f across seeds, want ≥ 0.9 (robustness)", row.MeanP)
	}
	if row.StdF > 0.2 {
		t.Errorf("F-score std = %.2f across seeds, want stable (< 0.2)", row.StdF)
	}
}

func TestSeedSweepNoSeeds(t *testing.T) {
	if _, err := SeedSweep(context.Background(), "ntp", 50, nil); err == nil {
		t.Error("empty seed list should error")
	}
}
