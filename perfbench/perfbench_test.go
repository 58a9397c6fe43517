package main

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"testing"

	"protoclust"
)

// goldenJob is the cheapest job of auto-eps: golden dns-100.
var goldenJob = analysisJob{proto: "dns", n: 100, seed: 1, segmenter: protoclust.SegmenterTruth, golden: true}

// runOnce measures a one-job workload against the expected file at path.
func runOnce(t *testing.T, path string) result {
	t.Helper()
	w := workload{name: "test", setup: func(ctx context.Context, e *env) (runner, error) {
		return setupAnalyze(ctx, e, []analysisJob{goldenJob})
	}}
	e := &env{group: groupFor(1), expectedPath: path, goldenDir: filepath.Join("..", "testdata", "golden")}
	res, _, err := measure(context.Background(), w, e, 1, false, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExpectedRecordPasses(t *testing.T) {
	res := runOnce(t, "expected.json")
	if !res.Correct || res.Failed != 0 || res.Attempted != 1 {
		t.Fatalf("pristine expected.json: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

func TestCorruptExpectedRecordFailsRun(t *testing.T) {
	data, err := os.ReadFile("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	key := goldenJob.key()
	rec, ok := f.Records[key]
	if !ok {
		t.Fatalf("expected.json has no record %s", key)
	}
	// One ulp is enough: ε is compared bit-for-bit.
	rec.Epsilon = math.Nextafter(rec.Epsilon, 1)
	f.Records[key] = rec
	path := filepath.Join(t.TempDir(), "expected.json")
	out, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	res := runOnce(t, path)
	if res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted record: correct=%v failed=%d, want a failed run", res.Correct, res.Failed)
	}
}

func TestExpectedCoversEveryGroup(t *testing.T) {
	c, err := loadChecker("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range allGroups() {
		var keys []string
		for _, j := range autoEpsJobs(g) {
			keys = append(keys, j.key())
		}
		for _, j := range pinnedEpsJobs(g) {
			keys = append(keys, j.key())
		}
		for cl := 0; cl < mixClients; cl++ {
			for _, j := range serviceMixJobs(g, cl) {
				keys = append(keys, j.key())
			}
		}
		for _, k := range keys {
			if _, ok := c.want[k]; !ok {
				t.Errorf("group %s: no expected record %s", g.name, k)
			}
		}
	}
}

func TestGroupFor(t *testing.T) {
	if g := groupFor(heldOutSeed); g.name != "held-out" {
		t.Errorf("held-out seed maps to %s", g.name)
	}
	if groupFor(3) != groupFor(13) || groupFor(-7) != groupFor(3) {
		t.Error("seeds equal modulo the group count must share a group")
	}
	for _, g := range allGroups()[:seedGroups] {
		if g == groupFor(heldOutSeed) {
			t.Errorf("ordinary group %s reuses the held-out traces", g.name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4) of Python: [2.75, 5.5, 8.25] for 1…10 and [1.25, 2.5, 3.75] for
// 1…4.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Error(err)
		}
	}
}
