// Command perfbench is protoclust's end-to-end and per-layer benchmark.
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload auto-eps --seed 1 --seconds 30 --trace 0
//
// A run sets the workload up several times (reporting the median as
// setup_s), then repeats the workload's fixed job list for --seconds,
// checks every job's output against expected.json and prints one JSON
// object as its last line of standard output. With --trace 0 it holds
// the end-to-end metrics; with --trace 1 the run is split into an
// untraced half and a traced half, and it holds the per-layer metrics
// and the tracing overhead. Spans are written to
// $BENCH_OUT/spans/<workload>-seed<seed>.json.
//
// Two more modes:
//
//	perfbench compare [-bench BENCHMARK.json] DIR_A DIR_B
//	perfbench update-expected [-out perfbench/expected.json] -commit REV
//
// compare is the A/A check: it reads two result sets of the same code
// (see aa.sh) and reports per workload and metric the two medians, their
// quartile spreads and whether both stay within the metric's bound.
// update-expected regenerates expected.json from the current code for
// every seed group.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 7

// runTimeout bounds a whole run, so a hung job fails the run instead of
// outliving the 180 s a run may take.
const runTimeout = 170 * time.Second

// workload names a job mix and how to set it up. The reason each
// workload exists is recorded beside its job list in workloads.go.
type workload struct {
	name  string
	setup func(ctx context.Context, env *env) (runner, error)
}

var workloads = []workload{
	{"auto-eps", func(ctx context.Context, env *env) (runner, error) {
		return setupAnalyze(ctx, env, autoEpsJobs(env.group))
	}},
	{"pinned-eps", func(ctx context.Context, env *env) (runner, error) {
		return setupAnalyze(ctx, env, pinnedEpsJobs(env.group))
	}},
	{"service-mix", setupMix},
}

// runner runs a workload's fixed job list once per round. A nil tracer
// runs the round untraced.
type runner interface {
	round(ctx context.Context, t *tracer) (roundResult, error)
}

// roundResult is one pass over a workload's job list.
type roundResult struct {
	// analysis is the time the list took: the wall time of the service
	// round, the summed job times (without probes) in-process.
	analysis  time.Duration
	jobs      []time.Duration // latency of every job that succeeded
	attempted int
	failed    int
	errs      []string
	layers    layers // per-layer metrics (traced rounds)
	peakRSSMB float64
}

// fail counts a failed job, keeping the first few reasons.
func (rr *roundResult) fail(err error) {
	rr.failed++
	if len(rr.errs) < 5 {
		rr.errs = append(rr.errs, err.Error())
	}
}

// env is what set-up needs to know about the run.
type env struct {
	group        group
	expectedPath string
	goldenDir    string
	// recorder, when set, collects outputs instead of checking them.
	recorder *checker
}

func (e *env) loadChecker() (*checker, error) {
	if e.recorder != nil {
		return e.recorder, nil
	}
	return loadChecker(e.expectedPath)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the --trace 0 metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"analysis_s", "s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the --trace 1 metrics with their units. A layer a
// workload does not run reads 0. Times and counts are totals over one
// pass of the job list (median over traced rounds), except the
// service.*_ms job times, which are per-job medians.
var perLayer = []struct{ name, unit string }{
	{"core.autoconf.ms", "ms"},
	{"core.autoconf.self_ms", "ms"},
	{"core.autoconf.curves", "count"},
	{"core.autoconf.curve_points", "count"},
	{"core.guard.reruns", "count"},
	{"core.cluster.ms", "ms"},
	{"dissim.matrix.ms", "ms"},
	{"dissim.matrix.pairs", "count"},
	{"dissim.matrix.ns_per_pair", "ns"},
	{"dissim.matrix.resident_mb", "MB"},
	{"dissim.knn.ms", "ms"},
	{"dbscan.ms", "ms"},
	{"core.refine.ms", "ms"},
	{"core.refine.clusters_in", "count"},
	{"core.refine.clusters_out", "count"},
	{"deduplicate.ms", "ms"},
	{"segment.ms", "ms"},
	{"segment.segments", "count"},
	{"segment.budget_failures", "count"},
	{"dissim.pool.ms", "ms"},
	{"dissim.pool.unique", "count"},
	{"format.learn.ms", "ms"},
	{"format.learn.templates", "count"},
	{"format.recognize.ms", "ms"},
	{"format.recognize.known_share", "ratio"},
	{"dissim.matrix.tiled_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.http_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.stage.segment_ms", "ms"},
	{"service.stage.cluster_ms", "ms"},
	{"service.stage.format_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "perfbench: ", 0)
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:], stdout)
	case len(args) > 0 && args[0] == "update-expected":
		err = updateExpected(args[1:], lg)
	default:
		err = benchMain(args, stdout, lg)
	}
	if err != nil {
		lg.Print(err)
		return 1
	}
	return 0
}

func benchMain(args []string, stdout io.Writer, lg *log.Logger) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(lg.Writer())
	name := fs.String("workload", "", "workload: auto-eps, pinned-eps or service-mix")
	seed := fs.Int64("seed", 1, "workload seed; selects the generator seeds of every job")
	seconds := fs.Int("seconds", 30, "how long to repeat the job list")
	trace := fs.Int("trace", 0, "1 runs the traced layer run and reports per-layer metrics")
	expected := fs.String("expected", filepath.Join("perfbench", "expected.json"), "expected-output file")
	goldenDir := fs.String("golden", filepath.Join("testdata", "golden"), "golden record directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	e := &env{group: groupFor(*seed), expectedPath: *expected, goldenDir: *goldenDir}
	res, t, err := measure(ctx, w, e, time.Duration(*seconds)*time.Second, *trace == 1, lg)
	if err != nil {
		return err
	}
	if t != nil {
		out := os.Getenv("BENCH_OUT")
		if out == "" {
			out = ".bench_build"
		}
		if err := t.write(filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// measure sets the workload up, runs rounds of it for d and computes
// the metrics. When traced, the first half of d runs untraced rounds
// and the second half traced ones; each half runs at least one round.
func measure(ctx context.Context, w workload, e *env, d time.Duration, traced bool, lg *log.Logger) (result, *tracer, error) {
	var (
		setups []float64
		r      runner
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if r, err = w.setup(ctx, e); err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	start := time.Now()
	plainEnd := start.Add(d)
	if traced {
		plainEnd = start.Add(d / 2)
	}
	plain, err := rounds(ctx, r, nil, plainEnd, lg)
	if err != nil {
		return result{}, nil, err
	}
	var t *tracer
	var tr []roundResult
	if traced {
		t = newTracer()
		if tr, err = rounds(ctx, r, t, start.Add(d), lg); err != nil {
			return result{}, nil, err
		}
	}

	res := result{Metrics: make(map[string]metric)}
	for _, rr := range append(plain, tr...) {
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		for _, msg := range rr.errs {
			lg.Print("job failed: ", msg)
		}
	}
	res.Correct = res.Failed == 0
	plainS := analysisSeconds(plain)
	lg.Printf("%s group %s: %d untraced and %d traced rounds", w.name, e.group.name, len(plain), len(tr))

	if !traced {
		var jobs, rss []float64
		for _, rr := range plain {
			for _, j := range rr.jobs {
				jobs = append(jobs, ms(j))
			}
			rss = append(rss, rr.peakRSSMB)
		}
		values := map[string]float64{
			"setup_s":     median(setups),
			"analysis_s":  plainS,
			"job_ms_p50":  percentile(jobs, 50),
			"job_ms_p90":  percentile(jobs, 90),
			"peak_rss_mb": median(rss),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		return res, nil, nil
	}

	for _, rr := range tr {
		if pairs := rr.layers["dissim.matrix.pairs"]; pairs > 0 {
			rr.layers["dissim.matrix.ns_per_pair"] = rr.layers["dissim.matrix.ms"] * 1e6 / pairs
		}
	}
	for _, m := range perLayer {
		var xs []float64
		for _, rr := range tr {
			xs = append(xs, rr.layers[m.name])
		}
		res.Metrics[m.name] = metric{median(xs), m.unit}
	}
	res.Metrics["trace.overhead_share"] = metric{(analysisSeconds(tr) - plainS) / plainS, "ratio"}
	return res, t, nil
}

// rounds runs at least one round and then starts another while it would
// end closer to the deadline than stopping does (judged by the last
// round's length). Before each round the heap is collected and freed
// memory returned to the OS, so no round pays for the garbage of the one
// before, and the peak resident size is reset, so each round reports
// its own.
func rounds(ctx context.Context, r runner, t *tracer, until time.Time, lg *log.Logger) ([]roundResult, error) {
	var out []roundResult
	var last time.Duration
	for len(out) == 0 || time.Now().Add(last/2).Before(until) {
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("reset peak RSS: %w", err)
		}
		start := time.Now()
		rr, err := r.round(ctx, t)
		if err != nil {
			return nil, err
		}
		last = time.Since(start)
		if rr.peakRSSMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		lg.Printf("round %d (traced %v): analysis %.3f s, peak RSS %.1f MB",
			len(out)+1, t != nil, rr.analysis.Seconds(), rr.peakRSSMB)
		out = append(out, rr)
	}
	return out, nil
}

// analysisSeconds is the median analysis time of the rounds.
func analysisSeconds(rs []roundResult) float64 {
	xs := make([]float64, len(rs))
	for i, rr := range rs {
		xs[i] = rr.analysis.Seconds()
	}
	return median(xs)
}

// updateExpected runs every workload's list once for every seed group
// and writes the outputs as the new expected.json.
func updateExpected(args []string, lg *log.Logger) error {
	fs := flag.NewFlagSet("update-expected", flag.ContinueOnError)
	fs.SetOutput(lg.Writer())
	out := fs.String("out", filepath.Join("perfbench", "expected.json"), "file to write")
	goldenDir := fs.String("golden", filepath.Join("testdata", "golden"), "golden record directory")
	commit := fs.String("commit", "", "revision the records are generated from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *commit == "" {
		return errors.New("update-expected needs -commit")
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ctx := context.Background()
	rec := newRecorder()
	for _, g := range allGroups() {
		for _, w := range workloads {
			e := &env{group: g, goldenDir: *goldenDir, recorder: rec}
			r, err := w.setup(ctx, e)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.name, g.name, err)
			}
			rr, err := r.round(ctx, nil)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.name, g.name, err)
			}
			if rr.failed > 0 {
				return fmt.Errorf("%s/%s: %d jobs failed: %v", w.name, g.name, rr.failed, rr.errs)
			}
			lg.Printf("%s/%s: %d jobs", w.name, g.name, rr.attempted)
		}
	}
	lg.Printf("%d records", len(rec.got))
	return rec.save(*out, *commit)
}
