package report

import (
	"context"
	"strings"
	"testing"

	"protoclust/internal/experiments"
)

func figureData() *experiments.Figure2Data {
	return &experiments.Figure2Data{
		Protocol: "ntp", Messages: 1000, K: 2,
		X:        []float64{0.05, 0.1, 0.15, 0.3},
		ECDF:     []float64{0.25, 0.5, 0.9, 1.0},
		Smoothed: []float64{0.24, 0.52, 0.88, 0.99},
		KneeX:    0.15,
		Epsilon:  0.15,
	}
}

func TestWriteFigure2SVG(t *testing.T) {
	var sb strings.Builder
	if err := WriteFigure2SVG(&sb, figureData()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<svg", "</svg>",
		"ECDF Ê_2",
		"ntp, 1000 messages",
		"knee → ε = 0.150",
		"B-spline smoothing",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two data paths (ECDF + spline) plus axes.
	if n := strings.Count(out, "<path"); n != 2 {
		t.Errorf("path count = %d, want 2", n)
	}
	if !strings.HasPrefix(out, "<svg") {
		t.Error("output must start with the svg element")
	}
}

func TestWriteFigure2SVGEmpty(t *testing.T) {
	if err := WriteFigure2SVG(&strings.Builder{}, &experiments.Figure2Data{}); err == nil {
		t.Error("empty data should error")
	}
}

func TestWriteFigure2SVGNoKnee(t *testing.T) {
	d := figureData()
	d.KneeX = 0 // fallback path: no knee marker
	var sb strings.Builder
	if err := WriteFigure2SVG(&sb, d); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "knee →") {
		t.Error("knee marker rendered without a knee")
	}
}

func TestWriteFigure2SVGRealData(t *testing.T) {
	d, err := experiments.Figure2For(context.Background(), "ntp", 100)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFigure2SVG(&sb, d); err != nil {
		t.Fatal(err)
	}
	if len(sb.String()) < 1000 {
		t.Errorf("suspiciously small SVG: %d bytes", len(sb.String()))
	}
}
