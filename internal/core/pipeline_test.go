package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"protoclust/internal/dbscan"
	"protoclust/internal/dissim"
	"protoclust/internal/netmsg"
	"protoclust/internal/vecmath"
)

// synthSegments builds segments of three clearly distinct pseudo data
// types: (a) big-endian counters sharing a high prefix, (b) lowercase
// ASCII words, (c) high-value byte runs. Types are recoverable from
// value similarity, which is what the pipeline must find.
func synthSegments(perType int, seed int64) ([]netmsg.Segment, map[string]string) {
	rng := rand.New(rand.NewSource(seed))
	var segs []netmsg.Segment
	truth := make(map[string]string)
	add := func(val []byte, typ string) {
		m := &netmsg.Message{Data: val}
		segs = append(segs, netmsg.Segment{Msg: m, Offset: 0, Length: len(val)})
		truth[string(val)] = typ
	}
	for i := 0; i < perType; i++ {
		// Counters: 0x00 0x01 0x0N xx.
		add([]byte{0x00, 0x01, byte(i / 8), byte(rng.Intn(64))}, "counter")
		// ASCII words of length 4-6.
		w := make([]byte, 4+rng.Intn(3))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		add(w, "chars")
		// High-value runs: 0xF0..0xFF bytes.
		h := make([]byte, 4)
		for j := range h {
			h[j] = byte(0xf0 + rng.Intn(16))
		}
		add(h, "high")
	}
	return segs, truth
}

func TestClusterSegmentsTooFew(t *testing.T) {
	m := &netmsg.Message{Data: []byte{1, 2, 3, 4}}
	segs := []netmsg.Segment{{Msg: m, Offset: 0, Length: 2}}
	if _, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil); !errors.Is(err, ErrTooFewSegments) {
		t.Errorf("err = %v, want ErrTooFewSegments", err)
	}
}

func TestClusterSegmentsSeparatesTypes(t *testing.T) {
	segs, truth := synthSegments(40, 1)
	res, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil)
	if err != nil {
		t.Fatalf("ClusterSegments: %v", err)
	}
	if len(res.Clusters) < 2 {
		t.Fatalf("found %d clusters, want at least 2", len(res.Clusters))
	}
	// Measure cluster purity by the dominant truth label per cluster.
	var pure, total int
	for _, c := range res.Clusters {
		counts := make(map[string]int)
		for _, idx := range c.UniqueIndexes {
			counts[truth[string(res.Pool.Unique[idx].Bytes())]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		pure += best
		total += len(c.UniqueIndexes)
	}
	if total == 0 {
		t.Fatal("no unique segments clustered")
	}
	purity := float64(pure) / float64(total)
	if purity < 0.9 {
		t.Errorf("cluster purity = %.2f, want ≥ 0.9", purity)
	}
}

func TestClusterSegmentsDeterministic(t *testing.T) {
	segs, _ := synthSegments(20, 2)
	a, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a.Clusters), len(b.Clusters))
	}
	for i := range a.Clusters {
		if len(a.Clusters[i].UniqueIndexes) != len(b.Clusters[i].UniqueIndexes) {
			t.Fatalf("cluster %d size differs", i)
		}
	}
	if a.Config.Epsilon != b.Config.Epsilon {
		t.Errorf("epsilon differs: %v vs %v", a.Config.Epsilon, b.Config.Epsilon)
	}
}

func TestClusterSegmentsFixedEpsilon(t *testing.T) {
	segs, _ := synthSegments(20, 3)
	p := DefaultParams()
	p.FixedEpsilon = 0.05
	res, err := ClusterSegmentsContext(context.Background(), segs, p, nil)
	if err != nil {
		t.Fatalf("ClusterSegments: %v", err)
	}
	if res.Config.Epsilon != 0.05 {
		t.Errorf("epsilon = %v, want fixed 0.05", res.Config.Epsilon)
	}
	if res.Config.FromKnee {
		t.Error("fixed epsilon must not be marked as knee-derived")
	}
}

func TestClusterSegmentsRefinementToggle(t *testing.T) {
	segs, _ := synthSegments(30, 4)
	on := DefaultParams()
	off := DefaultParams()
	off.DisableRefinement = true
	rOn, err := ClusterSegmentsContext(context.Background(), segs, on, nil)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := ClusterSegmentsContext(context.Background(), segs, off, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With refinement off, the cluster list must equal raw DBSCAN output.
	if len(rOff.Clusters) != rOff.MergedFrom {
		t.Errorf("refinement-off cluster count %d != raw %d", len(rOff.Clusters), rOff.MergedFrom)
	}
	_ = rOn
}

func TestResultAccountsForAllSegments(t *testing.T) {
	segs, _ := synthSegments(25, 5)
	// Add some 1-byte segments that must be excluded.
	m := &netmsg.Message{Data: []byte{0x42, 0x42, 0x43}}
	segs = append(segs,
		netmsg.Segment{Msg: m, Offset: 0, Length: 1},
		netmsg.Segment{Msg: m, Offset: 1, Length: 1},
		netmsg.Segment{Msg: m, Offset: 2, Length: 1},
	)
	res, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clustered := 0
	for _, c := range res.Clusters {
		clustered += len(c.Segments)
	}
	total := clustered + len(res.Noise) + len(res.Excluded)
	if total != len(segs) {
		t.Errorf("clusters(%d)+noise(%d)+excluded(%d) = %d, want %d",
			clustered, len(res.Noise), len(res.Excluded), total, len(segs))
	}
	if len(res.Excluded) != 3 {
		t.Errorf("excluded = %d, want 3 one-byte segments", len(res.Excluded))
	}
}

func TestCoveredBytes(t *testing.T) {
	segs, _ := synthSegments(25, 6)
	m := &netmsg.Message{Data: []byte{0x42, 0x42, 0x99}}
	segs = append(segs,
		netmsg.Segment{Msg: m, Offset: 0, Length: 1}, // 0x42, recurs
		netmsg.Segment{Msg: m, Offset: 1, Length: 1}, // 0x42, recurs
		netmsg.Segment{Msg: m, Offset: 2, Length: 1}, // 0x99, unique
	)
	res, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clusteredBytes := 0
	for _, c := range res.Clusters {
		for _, s := range c.Segments {
			clusteredBytes += s.Length
		}
	}
	// The two recurring 0x42 bytes count as covered; the lone 0x99 does
	// not.
	want := clusteredBytes + 2
	if got := res.CoveredBytes(); got != want {
		t.Errorf("CoveredBytes = %d, want %d", got, want)
	}
}

func TestConfigureProducesUsableEpsilon(t *testing.T) {
	segs, _ := synthSegments(40, 7)
	pool := dissim.NewPool(segs)
	m, err := dissim.ComputeMatrixContext(context.Background(), pool, dissim.Config{Penalty: DefaultParams().Penalty})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, m)
	cfg, err := ConfigureContext(context.Background(), m, DefaultParams())
	if err != nil {
		t.Fatalf("Configure: %v", err)
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon > 1 {
		t.Errorf("epsilon = %v, want in (0,1]", cfg.Epsilon)
	}
	if cfg.MinSamples < 2 {
		t.Errorf("minSamples = %d, want ≥ 2", cfg.MinSamples)
	}
	if cfg.K < 2 {
		t.Errorf("k = %d, want ≥ 2", cfg.K)
	}
	if len(cfg.Curve.X) != len(cfg.Curve.Y) || len(cfg.Curve.Y) != len(cfg.Curve.Smoothed) {
		t.Error("curve series lengths mismatch")
	}
	if cfg.FromKnee && (cfg.Curve.KneeIndex < 0 || cfg.Curve.KneeIndex >= len(cfg.Curve.X)) {
		t.Errorf("knee index %d out of range", cfg.Curve.KneeIndex)
	}
}

func TestConfigureIdenticalSegmentsFails(t *testing.T) {
	var segs []netmsg.Segment
	for i := 0; i < 10; i++ {
		m := &netmsg.Message{Data: []byte{1, 2, 3}}
		segs = append(segs, netmsg.Segment{Msg: m, Offset: 0, Length: 3})
	}
	// All identical values dedup to a single unique segment.
	if _, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil); err == nil {
		t.Error("identical-value trace should fail (nothing to cluster)")
	}
}

func TestLargeClusterGuard(t *testing.T) {
	// Construct a population with a fine structure (two close modes)
	// nested inside a coarse structure, so the first knee may span both
	// modes. Whether or not the guard fires, the pipeline must succeed
	// and produce a sane epsilon.
	rng := rand.New(rand.NewSource(8))
	var segs []netmsg.Segment
	add := func(val []byte) {
		m := &netmsg.Message{Data: val}
		segs = append(segs, netmsg.Segment{Msg: m, Offset: 0, Length: len(val)})
	}
	for i := 0; i < 120; i++ {
		add([]byte{0x10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(i)})
	}
	for i := 0; i < 10; i++ {
		add([]byte{byte(0x80 + rng.Intn(120)), byte(rng.Intn(255)), byte(i), byte(rng.Intn(255))})
	}
	res, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil)
	if err != nil {
		t.Fatalf("ClusterSegments: %v", err)
	}
	if res.Config.Epsilon <= 0 {
		t.Errorf("epsilon = %v", res.Config.Epsilon)
	}
	t.Logf("guard fired: %v, clusters: %d, eps: %.3f", res.Reconfigured, len(res.Clusters), res.Config.Epsilon)
}

func TestPipelineOnManySeeds(t *testing.T) {
	// The pipeline must never panic or error across varied populations.
	for seed := int64(10); seed < 20; seed++ {
		segs, _ := synthSegments(15+int(seed), seed)
		if _, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func ExampleClusterSegmentsContext() {
	segs, _ := synthSegments(30, 42)
	res, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(len(res.Clusters) > 0)
	// Output: true
}

func TestClusterSegmentsWithOPTICS(t *testing.T) {
	segs, truth := synthSegments(30, 21)
	p := DefaultParams()
	p.Clusterer = "optics"
	res, err := ClusterSegmentsContext(context.Background(), segs, p, nil)
	if err != nil {
		t.Fatalf("OPTICS pipeline: %v", err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("OPTICS pipeline produced no clusters")
	}
	// OPTICS must separate the synthetic types about as well as DBSCAN
	// (the paper: "similar alternatives ... suffer from the same
	// effect").
	var pure, total int
	for _, c := range res.Clusters {
		counts := make(map[string]int)
		for _, idx := range c.UniqueIndexes {
			counts[truth[string(res.Pool.Unique[idx].Bytes())]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		pure += best
		total += len(c.UniqueIndexes)
	}
	if total == 0 {
		t.Fatal("no segments clustered")
	}
	if purity := float64(pure) / float64(total); purity < 0.85 {
		t.Errorf("OPTICS purity = %.2f, want ≥ 0.85", purity)
	}
}

func TestOPTICSAndDBSCANPipelinesComparable(t *testing.T) {
	segs, _ := synthSegments(25, 22)
	pd := DefaultParams()
	rd, err := ClusterSegmentsContext(context.Background(), segs, pd, nil)
	if err != nil {
		t.Fatal(err)
	}
	po := DefaultParams()
	po.Clusterer = "optics"
	ro, err := ClusterSegmentsContext(context.Background(), segs, po, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster counts within a factor of two of each other.
	a, b := len(rd.Clusters), len(ro.Clusters)
	if a > 2*b+1 || b > 2*a+1 {
		t.Errorf("cluster counts diverge: DBSCAN %d vs OPTICS %d", a, b)
	}
}

func TestClusterSegmentsWithHDBSCAN(t *testing.T) {
	segs, truth := synthSegments(30, 23)
	p := DefaultParams()
	p.Clusterer = "hdbscan"
	res, err := ClusterSegmentsContext(context.Background(), segs, p, nil)
	if err != nil {
		t.Fatalf("HDBSCAN pipeline: %v", err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("HDBSCAN pipeline produced no clusters")
	}
	var pure, total int
	for _, c := range res.Clusters {
		counts := make(map[string]int)
		for _, idx := range c.UniqueIndexes {
			counts[truth[string(res.Pool.Unique[idx].Bytes())]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		pure += best
		total += len(c.UniqueIndexes)
	}
	if total == 0 {
		t.Fatal("no segments clustered")
	}
	if purity := float64(pure) / float64(total); purity < 0.8 {
		t.Errorf("HDBSCAN purity = %.2f, want ≥ 0.8", purity)
	}
}

// TestClusterSegmentsUnknownClusterer requires an unknown clusterer to
// be rejected before any matrix is built, with the error prefixed once;
// ClusterPoolContext rejects it before it reads the pool or matrix.
func TestClusterSegmentsUnknownClusterer(t *testing.T) {
	segs, _ := synthSegments(10, 24)
	p := DefaultParams()
	p.Clusterer = "kmeans"
	builds := 0
	build := func(ctx context.Context, pool *dissim.Pool, cfg dissim.Config) (*dissim.Matrix, error) {
		builds++
		return dissim.ComputeMatrixContext(ctx, pool, cfg)
	}
	const want = `core: unknown clusterer "kmeans"`
	_, err := ClusterSegmentsContext(context.Background(), segs, p, build)
	if err == nil || err.Error() != want {
		t.Errorf("ClusterSegmentsContext err = %v, want %s", err, want)
	}
	if builds != 0 {
		t.Errorf("matrix built %d times before the clusterer was checked", builds)
	}
	if _, err := ClusterPoolContext(context.Background(), nil, nil, p); err == nil || err.Error() != want {
		t.Errorf("ClusterPoolContext err = %v, want %s", err, want)
	}
}

func TestClusterSegmentsContextCanceled(t *testing.T) {
	segs, _ := synthSegments(40, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ClusterSegmentsContext(ctx, segs, DefaultParams(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestClusterSegmentsContextUncancelledMatches checks that a live,
// cancellable ctx clusters as a background one does.
func TestClusterSegmentsContextUncancelledMatches(t *testing.T) {
	segs, _ := synthSegments(30, 2)
	want, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := ClusterSegmentsContext(ctx, segs, DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Clusters) != len(got.Clusters) || want.Config.Epsilon != got.Config.Epsilon {
		t.Fatalf("context path diverged: %d/%f vs %d/%f clusters/eps",
			len(got.Clusters), got.Config.Epsilon, len(want.Clusters), want.Config.Epsilon)
	}
}

// countdownCtx is a context that reports cancellation from its
// (left+1)-th Err call on, so a test can cancel at each checkpoint of a
// run in turn. fired records whether it ever did.
type countdownCtx struct {
	context.Context
	left  int
	fired bool
}

func (c *countdownCtx) Err() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	c.fired = true
	return context.Canceled
}

// Cancelling at any checkpoint, including those of the 60 %-guard's
// re-run of the auto-configuration, must fail the run: with refinement
// off and the guard triggered, nothing after the re-run looks at ctx
// again, so a swallowed cancellation would return the first-pass labels.
func TestClusterPoolCancelledAtEveryCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var values [][]byte
	for i := 0; i < 50; i++ {
		values = append(values, []byte{0x08, byte(rng.Intn(4)), 0x08, byte(rng.Intn(4))})
		values = append(values, []byte{0x70, byte(0x70 + rng.Intn(4)), 0x77, byte(rng.Intn(4))})
		values = append(values, []byte{0xe8, byte(0xe8 + rng.Intn(4)), 0xef, byte(0xe8 + rng.Intn(4))})
	}
	pool, m := poolFromValues(t, values)
	p := DefaultParams()
	p.LargeClusterShare = 0 // every clustering triggers the guard
	p.DisableRefinement = true
	want, err := ClusterPoolContext(context.Background(), pool, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Reconfigured {
		t.Fatal("the guard did not reconfigure; the test no longer reaches its re-run")
	}
	for left := 0; ; left++ {
		if left > 1000 {
			t.Fatal("the run never got past its checkpoints")
		}
		ctx := &countdownCtx{Context: context.Background(), left: left}
		got, err := ClusterPoolContext(ctx, pool, m, p)
		if ctx.fired {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled from Err call %d on: err = %v, want context.Canceled", left+1, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("uncancelled run: %v", err)
		}
		if !vecmath.EqualExact(got.Config.Epsilon, want.Config.Epsilon) || got.Reconfigured != want.Reconfigured {
			t.Fatalf("uncancelled run: ε %v reconfigured %v, want ε %v reconfigured %v",
				got.Config.Epsilon, got.Reconfigured, want.Config.Epsilon, want.Reconfigured)
		}
		break
	}
}

// TestLargeClusterGuardOutcomes forces every branch of the 60 % guard's
// re-run: adopted, no smaller ε, a failed auto-configuration, a failed
// clustering, and cancellation, which alone fails the run.
func TestLargeClusterGuardOutcomes(t *testing.T) {
	const first = 0.3
	rerun := &dbscan.Result{NumClusters: 2}
	configured := func(eps float64, err error) func(float64) (*AutoConfig, error) {
		return func(cut float64) (*AutoConfig, error) {
			if cut != first {
				t.Fatalf("re-run cut = %v, want the first-pass ε %v", cut, first)
			}
			if err != nil {
				return nil, err
			}
			return &AutoConfig{Epsilon: eps, MinSamples: 3}, nil
		}
	}
	clustered := func(err error) func(*AutoConfig) (*dbscan.Result, error) {
		return func(*AutoConfig) (*dbscan.Result, error) {
			if err != nil {
				return nil, err
			}
			return rerun, nil
		}
	}
	unreached := func(*AutoConfig) (*dbscan.Result, error) {
		t.Fatal("reclustered without a smaller ε")
		return nil, nil
	}
	for _, tc := range []struct {
		name        string
		reconfigure func(float64) (*AutoConfig, error)
		recluster   func(*AutoConfig) (*dbscan.Result, error)
		adopted     bool
		note        string
		err         error
	}{
		{"adopted", configured(0.2, nil), clustered(nil), true, "", nil},
		{"no smaller ε", configured(first, nil), unreached, false, "no smaller ε", nil},
		{"larger ε", configured(0.4, nil), unreached, false, "no smaller ε", nil},
		{"auto-configuration failed", configured(0, ErrTooFewSegments), unreached, false,
			"re-run failed: " + ErrTooFewSegments.Error(), nil},
		{"clustering failed", configured(0.2, nil), clustered(dbscan.ErrBadEps), false,
			"re-run failed: " + dbscan.ErrBadEps.Error(), nil},
		{"cancelled", configured(0, fmt.Errorf("core: auto-configuration: %w", context.Canceled)), unreached, false,
			"", context.Canceled},
		{"deadline", configured(0, fmt.Errorf("core: auto-configuration: %w", context.DeadlineExceeded)), unreached, false,
			"", context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, res, note, err := largeClusterGuard(first, tc.reconfigure, tc.recluster)
			if !errors.Is(err, tc.err) || (tc.err == nil) != (err == nil) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if (cfg != nil) != tc.adopted || (res == rerun) != tc.adopted {
				t.Fatalf("cfg = %v, res = %v, want adopted = %v", cfg, res, tc.adopted)
			}
			if note != tc.note {
				t.Fatalf("note = %q, want %q", note, tc.note)
			}
		})
	}
}

// TestGuardNoteOnPipeline checks Result.GuardNote end to end: empty
// when the guard's re-run is adopted and when the guard stays quiet,
// and set when the re-run fails.
func TestGuardNoteOnPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var values [][]byte
	for i := 0; i < 50; i++ {
		values = append(values, []byte{0x08, byte(rng.Intn(4)), 0x08, byte(rng.Intn(4))})
		values = append(values, []byte{0x70, byte(0x70 + rng.Intn(4)), 0x77, byte(rng.Intn(4))})
		values = append(values, []byte{0xe8, byte(0xe8 + rng.Intn(4)), 0xef, byte(0xe8 + rng.Intn(4))})
	}
	pool, m := poolFromValues(t, values)
	p := DefaultParams()
	p.LargeClusterShare = 0 // every clustering triggers the guard
	res, err := ClusterPoolContext(context.Background(), pool, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reconfigured || res.GuardNote != "" {
		t.Fatalf("forced guard: reconfigured %v, note %q; want an adopted re-run", res.Reconfigured, res.GuardNote)
	}
	p.LargeClusterShare = 1 // no cluster holds more than every segment
	res, err = ClusterPoolContext(context.Background(), pool, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigured || res.GuardNote != "" {
		t.Fatalf("quiet guard: reconfigured %v, note %q", res.Reconfigured, res.GuardNote)
	}
	// ε at the bottom quantile of the k-NN distances leaves the re-run
	// no distance below its cut, so its auto-configuration fails.
	p.LargeClusterShare = -1 // fires even when every segment is noise
	p.EpsQuantile = 1e-9
	res, err = ClusterPoolContext(context.Background(), pool, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := "re-run failed: "; res.Reconfigured || !strings.HasPrefix(res.GuardNote, want) ||
		!strings.Contains(res.GuardNote, ErrTooFewSegments.Error()) {
		t.Fatalf("failed re-run: reconfigured %v, note %q; want %q and %v", res.Reconfigured, res.GuardNote, want, ErrTooFewSegments)
	}
}
