package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

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
	if _, err := ClusterSegments(segs, DefaultParams()); !errors.Is(err, ErrTooFewSegments) {
		t.Errorf("err = %v, want ErrTooFewSegments", err)
	}
}

func TestClusterSegmentsSeparatesTypes(t *testing.T) {
	segs, truth := synthSegments(40, 1)
	res, err := ClusterSegments(segs, DefaultParams())
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
	a, err := ClusterSegments(segs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterSegments(segs, DefaultParams())
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
	res, err := ClusterSegments(segs, p)
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
	rOn, err := ClusterSegments(segs, on)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := ClusterSegments(segs, off)
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
	res, err := ClusterSegments(segs, DefaultParams())
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
	res, err := ClusterSegments(segs, DefaultParams())
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
	m, err := dissim.Compute(pool, DefaultParams().Penalty)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Configure(m, DefaultParams())
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
	if _, err := ClusterSegments(segs, DefaultParams()); err == nil {
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
	res, err := ClusterSegments(segs, DefaultParams())
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
		if _, err := ClusterSegments(segs, DefaultParams()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func ExampleClusterSegments() {
	segs, _ := synthSegments(30, 42)
	res, err := ClusterSegments(segs, DefaultParams())
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
	res, err := ClusterSegments(segs, p)
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
	rd, err := ClusterSegments(segs, pd)
	if err != nil {
		t.Fatal(err)
	}
	po := DefaultParams()
	po.Clusterer = "optics"
	ro, err := ClusterSegments(segs, po)
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
	res, err := ClusterSegments(segs, p)
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

func TestClusterSegmentsUnknownClusterer(t *testing.T) {
	segs, _ := synthSegments(10, 24)
	p := DefaultParams()
	p.Clusterer = "kmeans"
	if _, err := ClusterSegments(segs, p); err == nil {
		t.Error("unknown clusterer should error")
	}
}

func TestClusterSegmentsContextCanceled(t *testing.T) {
	segs, _ := synthSegments(40, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ClusterSegmentsContext(ctx, segs, DefaultParams()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestClusterSegmentsContextUncancelledMatches(t *testing.T) {
	segs, _ := synthSegments(30, 2)
	want, err := ClusterSegments(segs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ClusterSegmentsContext(context.Background(), segs, DefaultParams())
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
	want, err := ClusterPool(pool, m, p)
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
