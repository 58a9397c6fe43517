package golden

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFormatDeterministic: the recognition harness is fully seeded,
// so two runs of the same spec must produce bit-identical records.
func TestRunFormatDeterministic(t *testing.T) {
	spec := FormatSpec{Protocol: "ntp", Messages: 100, TrainSeed: 1, RecognizeSeed: 2}
	a, err := RunFormat(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFormat(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("two runs of %v differ:\n%+v\n%+v", spec, a, b)
	}
	if a.Templates == 0 || a.Assigned == 0 || a.Formats == 0 {
		t.Errorf("degenerate record: %+v", a)
	}
}

// TestFormatSaveLoadRoundTrip checks the JSON persistence.
func TestFormatSaveLoadRoundTrip(t *testing.T) {
	rec := &FormatRecord{
		FormatSpec: FormatSpec{Protocol: "ntp", Messages: 100, TrainSeed: 1, RecognizeSeed: 2},
		Templates:  2, Assigned: 2, Unknown: 0, Formats: 3,
		TypeAccuracy: 1, ByteCoverage: 0.74,
	}
	path := filepath.Join(t.TempDir(), "sub", "format-ntp-100.json")
	if err := SaveFormat(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFormat(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *rec {
		t.Fatalf("round trip changed the record:\n%+v\n%+v", got, rec)
	}
}

// TestCompareFormatFlagsDrift: structural counts must match exactly,
// quality metrics get the tolerance band.
func TestCompareFormatFlagsDrift(t *testing.T) {
	base := &FormatRecord{
		FormatSpec: FormatSpec{Protocol: "x", Messages: 10, TrainSeed: 1, RecognizeSeed: 2},
		Templates:  3, Assigned: 2, Unknown: 1, Formats: 4,
		TypeAccuracy: 0.9, ByteCoverage: 0.7,
	}
	tol := Tolerance{Metric: 0.02}

	within := *base
	within.TypeAccuracy -= 0.019
	within.ByteCoverage += 0.019
	if v := CompareFormat(base, &within, tol); len(v) != 0 {
		t.Errorf("in-band drift flagged: %v", v)
	}

	cases := []struct {
		name   string
		mutate func(*FormatRecord)
	}{
		{"templates", func(r *FormatRecord) { r.Templates++ }},
		{"assigned", func(r *FormatRecord) { r.Assigned-- }},
		{"unknown", func(r *FormatRecord) { r.Unknown++ }},
		{"formats", func(r *FormatRecord) { r.Formats++ }},
		{"type_accuracy", func(r *FormatRecord) { r.TypeAccuracy -= 0.021 }},
		{"byte_coverage", func(r *FormatRecord) { r.ByteCoverage += 0.021 }},
		{"spec", func(r *FormatRecord) { r.RecognizeSeed = 9 }},
	}
	for _, tc := range cases {
		got := *base
		tc.mutate(&got)
		v := CompareFormat(base, &got, tol)
		if len(v) == 0 {
			t.Errorf("%s: out-of-band drift not flagged", tc.name)
			continue
		}
		joined := strings.Join(v, "\n")
		if !strings.Contains(joined, tc.name) && tc.name != "spec" {
			t.Errorf("%s: violations do not name the metric: %s", tc.name, joined)
		}
	}
}
