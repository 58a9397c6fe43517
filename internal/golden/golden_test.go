package golden

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestRunDeterministic runs the same spec twice; the pipeline is fully
// seeded, so the records must be bit-identical (the property that makes
// the golden harness trustworthy).
func TestRunDeterministic(t *testing.T) {
	spec := Spec{Protocol: "ntp", Messages: 100, Seed: 1}
	a, err := Run(context.Background(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("two runs of %v differ:\n%+v\n%+v", spec, a, b)
	}
}

// TestSaveLoadRoundTrip checks the JSON persistence.
func TestSaveLoadRoundTrip(t *testing.T) {
	rec := &Record{
		Spec: Spec{Protocol: "ntp", Messages: 100, Seed: 1}, Epsilon: 0.1865, K: 2,
		MinSamples: 4, FromKnee: true, UniqueSegments: 120, Clusters: 2,
		NoiseSegments: 3, Precision: 1, Recall: 0.985, FScore: 0.999, Coverage: 0.83,
	}
	path := filepath.Join(t.TempDir(), "sub", "ntp-100.json")
	if err := Save(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *rec {
		t.Fatalf("round trip changed the record:\n%+v\n%+v", got, rec)
	}
}

// TestCompareFlagsDrift checks each tolerance band: values inside pass,
// values outside produce a violation naming the metric.
func TestCompareFlagsDrift(t *testing.T) {
	base := &Record{
		Spec: Spec{Protocol: "x", Messages: 10, Seed: 1}, Epsilon: 0.1, K: 2,
		MinSamples: 3, FromKnee: true, UniqueSegments: 50, Clusters: 4,
		NoiseSegments: 2, Precision: 0.9, Recall: 0.8, FScore: 0.89, Coverage: 0.7,
	}
	tol := Tolerance{Epsilon: 0.01, Metric: 0.02, Clusters: 1, Noise: 2}

	within := *base
	within.Epsilon += 0.009
	within.Precision -= 0.019
	within.Clusters++
	within.NoiseSegments += 2
	if v := Compare(base, &within, tol); len(v) != 0 {
		t.Fatalf("in-band drift flagged: %v", v)
	}

	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"epsilon", func(r *Record) { r.Epsilon += 0.02 }},
		{"k", func(r *Record) { r.K = 3 }},
		{"min_samples", func(r *Record) { r.MinSamples = 4 }},
		{"from_knee", func(r *Record) { r.FromKnee = false }},
		{"unique", func(r *Record) { r.UniqueSegments = 51 }},
		{"clusters", func(r *Record) { r.Clusters += 2 }},
		{"noise", func(r *Record) { r.NoiseSegments += 3 }},
		{"precision", func(r *Record) { r.Precision -= 0.03 }},
		{"recall", func(r *Record) { r.Recall += 0.03 }},
		{"f_score", func(r *Record) { r.FScore -= 0.03 }},
		{"coverage", func(r *Record) { r.Coverage += 0.03 }},
	}
	for _, c := range cases {
		got := *base
		c.mutate(&got)
		if v := Compare(base, &got, tol); len(v) == 0 {
			t.Errorf("%s drift not flagged", c.name)
		}
	}
}

// TestCheckedInRecordAgrees replays one golden trace against the
// checked-in record, so `go test ./...` catches a stale or drifted
// record without paying for the full goldencheck set.
func TestCheckedInRecordAgrees(t *testing.T) {
	spec := Spec{Protocol: "ntp", Messages: 100, Seed: 1}
	path := Path(filepath.Join("..", "..", "testdata", "golden"), spec)
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no golden record at %s (run `make golden-update`)", path)
	}
	want, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if v := Compare(want, got, DefaultTolerance()); len(v) > 0 {
		t.Fatalf("checked-in record disagrees with live run: %v", v)
	}
}
