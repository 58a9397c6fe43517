package eval

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"protoclust/internal/core"
	"protoclust/internal/netmsg"
)

const (
	typeA = netmsg.FieldType("A")
	typeB = netmsg.FieldType("B")
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestClusterMetricsPerfect(t *testing.T) {
	m := ClusterMetrics([][]netmsg.FieldType{
		{typeA, typeA, typeA},
		{typeB, typeB},
	}, nil)
	if m.TP != 4 || m.FP != 0 || m.FN != 0 {
		t.Errorf("TP/FP/FN = %v/%v/%v, want 4/0/0", m.TP, m.FP, m.FN)
	}
	if m.Precision != 1 || m.Recall != 1 || m.FScore != 1 {
		t.Errorf("P/R/F = %v/%v/%v, want 1/1/1", m.Precision, m.Recall, m.FScore)
	}
}

func TestClusterMetricsOverclassified(t *testing.T) {
	// One type split into two clusters: precision stays 1, recall drops.
	m := ClusterMetrics([][]netmsg.FieldType{
		{typeA, typeA},
		{typeA, typeA},
	}, nil)
	if m.TP != 2 || m.FP != 0 {
		t.Errorf("TP/FP = %v/%v, want 2/0", m.TP, m.FP)
	}
	if m.FN != 4 {
		t.Errorf("FN = %v, want 4", m.FN)
	}
	if m.Precision != 1 {
		t.Errorf("P = %v, want 1", m.Precision)
	}
	if !almost(m.Recall, 2.0/6.0) {
		t.Errorf("R = %v, want 1/3", m.Recall)
	}
	// F¼ weights precision 4×: (1+1/16)·1·R / (1/16 + R).
	want := (1 + 1.0/16) * (2.0 / 6.0) / (1.0/16 + 2.0/6.0)
	if !almost(m.FScore, want) {
		t.Errorf("F = %v, want %v", m.FScore, want)
	}
}

func TestClusterMetricsUnderclassified(t *testing.T) {
	// Two types merged into one cluster: recall 1, precision drops.
	m := ClusterMetrics([][]netmsg.FieldType{
		{typeA, typeA, typeB, typeB},
	}, nil)
	if m.TP != 2 || m.FP != 4 || m.FN != 0 {
		t.Errorf("TP/FP/FN = %v/%v/%v, want 2/4/0", m.TP, m.FP, m.FN)
	}
	if !almost(m.Precision, 2.0/6.0) {
		t.Errorf("P = %v, want 1/3", m.Precision)
	}
	if m.Recall != 1 {
		t.Errorf("R = %v, want 1", m.Recall)
	}
}

func TestClusterMetricsWithNoise(t *testing.T) {
	// Hand-computed example: cluster {A,A}, noise {A,B,B}.
	m := ClusterMetrics([][]netmsg.FieldType{{typeA, typeA}},
		[]netmsg.FieldType{typeA, typeB, typeB})
	if m.TP != 1 || m.FP != 0 {
		t.Errorf("TP/FP = %v/%v, want 1/0", m.TP, m.FP)
	}
	// Missed pairs: 2 cluster↔noise A pairs + 1 noise B pair = 3.
	if m.FN != 3 {
		t.Errorf("FN = %v, want 3", m.FN)
	}
	if m.Precision != 1 || !almost(m.Recall, 0.25) {
		t.Errorf("P/R = %v/%v, want 1/0.25", m.Precision, m.Recall)
	}
}

func TestClusterMetricsEmpty(t *testing.T) {
	m := ClusterMetrics(nil, nil)
	if m.Precision != 0 || m.Recall != 0 || m.FScore != 0 {
		t.Errorf("empty metrics = %+v, want zeros", m)
	}
}

func TestClusterMetricsSingletons(t *testing.T) {
	// Singleton clusters contribute no pairs at all.
	m := ClusterMetrics([][]netmsg.FieldType{{typeA}, {typeB}}, nil)
	if m.TP != 0 || m.FP != 0 || m.FN != 0 {
		t.Errorf("singletons: %+v, want zero pair counts", m)
	}
}

func TestFBeta(t *testing.T) {
	if got := FBeta(1, 1, 0.25); got != 1 {
		t.Errorf("FBeta(1,1) = %v, want 1", got)
	}
	if got := FBeta(0, 0, 0.25); got != 0 {
		t.Errorf("FBeta(0,0) = %v, want 0", got)
	}
	// β=1 reduces to the standard F1.
	if got := FBeta(0.5, 1, 1); !almost(got, 2.0/3.0) {
		t.Errorf("F1(0.5,1) = %v, want 2/3", got)
	}
	// β=1/4: a low recall barely hurts when precision is 1.
	f := FBeta(1, 0.4, 0.25)
	f1 := FBeta(1, 0.4, 1)
	if f <= f1 {
		t.Errorf("F¼ (%v) should exceed F1 (%v) at high precision/low recall", f, f1)
	}
}

func TestFBetaPrecisionEmphasis(t *testing.T) {
	// With β = 1/4, losing precision must cost more than losing recall.
	lowP := FBeta(0.5, 1, 0.25)
	lowR := FBeta(1, 0.5, 0.25)
	if lowP >= lowR {
		t.Errorf("F(P=0.5,R=1) = %v should be below F(P=1,R=0.5) = %v", lowP, lowR)
	}
}

// buildResult runs the real pipeline over trivially separable segments
// with ground-truth dissections, for EvaluateResult/Coverage tests.
func buildResult(t *testing.T) (*core.Result, *netmsg.Trace) {
	t.Helper()
	tr := &netmsg.Trace{Protocol: "test"}
	var segs []netmsg.Segment
	for i := 0; i < 40; i++ {
		// Message: 4-byte counter-ish value + 4-byte high-value run.
		data := []byte{0, 1, byte(i / 8), byte(i), 0xf0, 0xf1, byte(0xf0 + i%16), 0xff}
		m := &netmsg.Message{
			Data: data,
			Fields: []netmsg.Field{
				{Name: "ctr", Offset: 0, Length: 4, Type: typeA},
				{Name: "hi", Offset: 4, Length: 4, Type: typeB},
			},
		}
		tr.Messages = append(tr.Messages, m)
		segs = append(segs,
			netmsg.Segment{Msg: m, Offset: 0, Length: 4},
			netmsg.Segment{Msg: m, Offset: 4, Length: 4},
		)
	}
	res, err := core.ClusterSegmentsContext(context.Background(), segs, core.DefaultParams(), nil)
	if err != nil {
		t.Fatalf("ClusterSegments: %v", err)
	}
	return res, tr
}

func TestEvaluateResult(t *testing.T) {
	res, _ := buildResult(t)
	m := EvaluateResult(res)
	if m.Precision < 0.9 {
		t.Errorf("precision = %v on separable types, want ≥ 0.9", m.Precision)
	}
	if m.FScore < 0.8 {
		t.Errorf("F-score = %v, want ≥ 0.8", m.FScore)
	}
}

func TestCoverage(t *testing.T) {
	res, tr := buildResult(t)
	cov := Coverage(res, tr)
	if cov <= 0 || cov > 1 {
		t.Fatalf("coverage = %v, want in (0,1]", cov)
	}
	if cov < 0.5 {
		t.Errorf("coverage = %v, want most bytes covered for separable types", cov)
	}
}

func TestCoverageEmptyTrace(t *testing.T) {
	res, _ := buildResult(t)
	if got := Coverage(res, &netmsg.Trace{}); got != 0 {
		t.Errorf("coverage of empty trace = %v, want 0", got)
	}
}

// Property: metrics stay in range and FScore is between min and max of
// precision and recall for arbitrary cluster compositions.
func TestMetricsRangeProperty(t *testing.T) {
	f := func(sizes []uint8, mix []bool) bool {
		var clusters [][]netmsg.FieldType
		bi := 0
		for _, s := range sizes {
			n := int(s)%6 + 1
			var c []netmsg.FieldType
			for j := 0; j < n; j++ {
				typ := typeA
				if bi < len(mix) && mix[bi] {
					typ = typeB
				}
				bi++
				c = append(c, typ)
			}
			clusters = append(clusters, c)
		}
		m := ClusterMetrics(clusters, nil)
		if m.Precision < 0 || m.Precision > 1 || m.Recall < 0 || m.Recall > 1 {
			return false
		}
		if m.FScore < 0 || m.FScore > 1 {
			return false
		}
		return m.TP >= 0 && m.FP >= 0 && m.FN >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: pair-count conservation — TP+FP equals the total
// within-cluster pairs.
func TestPairConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		var clusters [][]netmsg.FieldType
		var want float64
		for i, s := range sizes {
			n := int(s)%8 + 1
			c := make([]netmsg.FieldType, n)
			for j := range c {
				if (i+j)%3 == 0 {
					c[j] = typeB
				} else {
					c[j] = typeA
				}
			}
			clusters = append(clusters, c)
			want += float64(n) * float64(n-1) / 2
		}
		m := ClusterMetrics(clusters, nil)
		return almost(m.TP+m.FP, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
