// Command benchperf measures the dissimilarity hot path — kernel,
// pairwise matrix build, and k-NN table — at several population sizes
// and writes the results as a BENCH_*.json artifact. Each optimized
// number is paired with the pre-kernel reference implementation
// (dissim.ComputeReference, dissim.KNNTableSort,
// canberra.DissimilarityPenalty), so the file records the before/after
// of this optimization round and gives later PRs a trajectory to
// compare against. A per-backend shard additionally times the full
// matrix-build + k-NN pass through each storage backend (condensed,
// tiled, and tiled under a constrained budget with spill), recording
// the throughput cost of bounded memory.
//
// Regenerate with:
//
//	make bench-json
//
// With -e2e-n the command instead runs the whole clustering pipeline on
// a clustered synthetic pool through the tiled backend under -e2e-budget
// resident bytes, cross-checking labels bit-for-bit against the
// condensed backend when n permits (≤ 5000). Wired as `make smoke-tiled`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"protoclust/internal/canberra"
	"protoclust/internal/core"
	"protoclust/internal/dissim"
	"protoclust/internal/netmsg"
)

// mixedLens approximates heuristic segmentation output: mostly short
// fields with a tail of longer ones.
var mixedLens = []int{2, 3, 4, 6, 8, 12, 16}

type kernelResult struct {
	// Per-call nanoseconds for one dissimilarity evaluation.
	EqualLengthNsOp   float64 `json:"equal_length_ns_op"`
	SlidingNsOp       float64 `json:"sliding_ns_op"`
	RefEqualLengthNs  float64 `json:"reference_equal_length_ns_op"`
	RefSlidingNs      float64 `json:"reference_sliding_ns_op"`
	EqualLengthSpeedx float64 `json:"equal_length_speedup"`
	SlidingSpeedx     float64 `json:"sliding_speedup"`
}

// pr1EqualLen8NsOp is the equal-length (len 8) per-call kernel cost the
// PR-1 scalar kernel recorded in BENCH_1.json on this benchmark host —
// the fixed baseline the per-kernel shard reports speedups against.
const pr1EqualLen8NsOp = 12.174

// lenTiming is one equal-length measurement of one kernel: the
// per-call DissimViews cost and the amortized per-pair cost of the
// matrix build's row entry, LengthBlock.Row, over a block of 64
// partners of the same length.
type lenTiming struct {
	Len         int     `json:"len"`
	PerCallNsOp float64 `json:"per_call_ns_op"`
	BatchNsPair float64 `json:"batch_ns_per_pair"`
}

// slidingTiming is one sliding-window (unequal length) measurement.
type slidingTiming struct {
	Shape string  `json:"shape"`
	NsOp  float64 `json:"ns_op"`
}

// kernelVariant is the per-kernel shard: every registered kernel the
// host can run, measured over the same inputs.
type kernelVariant struct {
	Kernel  string          `json:"kernel"`
	Equal   []lenTiming     `json:"equal_length"`
	Sliding []slidingTiming `json:"sliding"`
	// Equal8VsScalar is scalar's len-8 per-call time over this kernel's.
	Equal8VsScalar float64 `json:"equal8_speedup_vs_scalar"`
	// Batch8VsPR1 is the PR-1 kernel baseline (pr1EqualLen8NsOp) over
	// this kernel's len-8 batched per-pair time — the production matrix
	// build path versus the original kernel.
	Batch8VsPR1 float64 `json:"batch_len8_speedup_vs_pr1"`
}

// scalingPoint is one GOMAXPROCS setting of the cores-vs-throughput
// sweep. Efficiency is T1 / (p · Tp) against this sweep's own p=1
// point; 1.0 is perfect linear scaling.
type scalingPoint struct {
	Procs     int     `json:"procs"`
	MatrixNs  int64   `json:"matrix_build_ns"`
	KNNNs     int64   `json:"knn_table_ns"`
	TiledNs   int64   `json:"tiled_pass_ns"`
	MatrixEff float64 `json:"matrix_parallel_efficiency"`
	KNNEff    float64 `json:"knn_parallel_efficiency"`
	TiledEff  float64 `json:"tiled_parallel_efficiency"`
}

// scalingResult is the multicore scaling shard: the three parallel
// stages (eager matrix build, k-NN table, lazy tiled matrix + k-NN
// pass) swept over GOMAXPROCS ∈ {1, 2, 4, ..., NumCPU}.
type scalingResult struct {
	N        int            `json:"n"`
	HostCPUs int            `json:"host_cpus"`
	Note     string         `json:"note,omitempty"`
	Points   []scalingPoint `json:"points"`
}

type stageResult struct {
	OptimizedNs int64   `json:"optimized_ns"`
	ReferenceNs int64   `json:"reference_ns"`
	NsPerOp     float64 `json:"optimized_ns_per_op"`
	RefNsPerOp  float64 `json:"reference_ns_per_op"`
	Speedup     float64 `json:"speedup"`
}

// backendResult times one storage backend end to end: matrix build plus
// a full k-NN table pass (the tiled backend computes lazily, so only
// the combined number is comparable across backends).
type backendResult struct {
	Backend       string  `json:"backend"`
	BudgetBytes   int64   `json:"budget_bytes,omitempty"`
	TotalNs       int64   `json:"total_ns"`
	NsPerPair     float64 `json:"ns_per_pair"`
	ResidentBytes int64   `json:"resident_bytes"`
	// VsCondensed is condensed total time / this backend's total time
	// (> 1 means faster than condensed).
	VsCondensed float64 `json:"throughput_vs_condensed"`
}

type shapeResult struct {
	N           int             `json:"n"`
	Pairs       int             `json:"pairs"`
	KMax        int             `json:"kmax"`
	Kernel      kernelResult    `json:"kernel"`
	MatrixBuild stageResult     `json:"matrix_build"`
	KNNTable    stageResult     `json:"knn_table"`
	Backends    []backendResult `json:"backends"`
}

// e2eResult records one end-to-end tiled-backend pipeline run.
type e2eResult struct {
	N              int     `json:"n"`
	UniqueSegments int     `json:"unique_segments"`
	BudgetBytes    int64   `json:"budget_bytes"`
	ElapsedNs      int64   `json:"elapsed_ns"`
	Epsilon        float64 `json:"epsilon"`
	Clusters       int     `json:"clusters"`
	NoiseSegments  int     `json:"noise_segments"`
	ResidentBytes  int64   `json:"matrix_resident_bytes"`
	CrossChecked   bool    `json:"cross_checked_vs_condensed"`
}

type benchFile struct {
	Bench      int             `json:"bench"`
	Generated  string          `json:"generated"`
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Kernel     string          `json:"kernel,omitempty"`
	Note       string          `json:"note"`
	Kernels    []kernelVariant `json:"kernel_variants,omitempty"`
	Shapes     []shapeResult   `json:"shapes,omitempty"`
	Scaling    *scalingResult  `json:"scaling,omitempty"`
	E2E        *e2eResult      `json:"e2e,omitempty"`
}

// genPool builds a deterministic pool of n unique segments.
func genPool(n int, lens []int, seed int64) *dissim.Pool {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var segs []netmsg.Segment
	for len(seen) < n {
		l := lens[rng.Intn(len(lens))]
		b := make([]byte, l)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		segs = append(segs, netmsg.Segment{Msg: &netmsg.Message{Data: b}, Offset: 0, Length: l})
	}
	return dissim.NewPool(segs)
}

// timeIt runs fn at least once and until minDuration has elapsed,
// returning nanoseconds per call.
func timeIt(minDuration time.Duration, fn func()) float64 {
	var (
		total time.Duration
		calls int
	)
	for total < minDuration {
		start := time.Now()
		fn()
		total += time.Since(start)
		calls++
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

func measureKernel(rng *rand.Rand) kernelResult {
	const reps = 200000
	eqA, eqB := make([]byte, 8), make([]byte, 8)
	short, long := make([]byte, 4), make([]byte, 16)
	for _, b := range [][]byte{eqA, eqB, short, long} {
		// (*rand.Rand).Read is documented to always return a nil error.
		_, _ = rng.Read(b)
	}
	vEqA, vEqB := canberra.NewView(eqA), canberra.NewView(eqB)
	vShort, vLong := canberra.NewView(short), canberra.NewView(long)

	var sink float64
	run := func(fn func()) float64 {
		ns := timeIt(100*time.Millisecond, func() {
			for i := 0; i < reps; i++ {
				fn()
			}
		})
		return ns / reps
	}
	r := kernelResult{}
	r.EqualLengthNsOp = run(func() { sink += canberra.DissimViews(vEqA, vEqB, canberra.DefaultPenalty) })
	r.SlidingNsOp = run(func() { sink += canberra.DissimViews(vShort, vLong, canberra.DefaultPenalty) })
	r.RefEqualLengthNs = run(func() {
		// Inputs are fixed same-length vectors; the error path is dead.
		d, _ := canberra.DissimilarityPenalty(eqA, eqB, canberra.DefaultPenalty)
		sink += d
	})
	r.RefSlidingNs = run(func() {
		// Inputs are fixed valid-length vectors; the error path is dead.
		d, _ := canberra.DissimilarityPenalty(short, long, canberra.DefaultPenalty)
		sink += d
	})
	if sink == math.Inf(1) {
		log.Fatal("benchperf: sink overflow")
	}
	r.EqualLengthSpeedx = r.RefEqualLengthNs / r.EqualLengthNsOp
	r.SlidingSpeedx = r.RefSlidingNs / r.SlidingNsOp
	return r
}

// measureKernelVariants times every kernel the host can run over a
// fixed input grid: equal-length pairs at 8/16/32/64 bytes (per-call
// and batched) and two sliding-window shapes. The active kernel is
// restored afterwards.
func measureKernelVariants(rng *rand.Rand) []kernelVariant {
	orig := canberra.ActiveKernel()
	defer func() {
		if err := canberra.SetKernel(orig); err != nil {
			log.Fatalf("benchperf: restoring kernel %q: %v", orig, err)
		}
	}()

	const batchPartners = 64 // one block of partners
	lens := []int{8, 16, 32, 64}
	slides := [][2]int{{4, 16}, {8, 64}}

	randView := func(n int) canberra.View {
		b := make([]byte, n)
		// (*rand.Rand).Read is documented to always return a nil error.
		_, _ = rng.Read(b)
		return canberra.NewView(b)
	}

	var sink float64
	perCall := func(x, y canberra.View, reps int) float64 {
		ns := timeIt(100*time.Millisecond, func() {
			for i := 0; i < reps; i++ {
				sink += canberra.DissimViews(x, y, canberra.DefaultPenalty)
			}
		})
		return ns / float64(reps)
	}

	var out []kernelVariant
	for _, name := range canberra.Kernels() {
		if err := canberra.SetKernel(name); err != nil {
			log.Printf("benchperf: kernel %s: %v (skipping)", name, err)
			continue
		}
		v := kernelVariant{Kernel: name}
		for _, l := range lens {
			x, y := randView(l), randView(l)
			ts := make([]canberra.View, batchPartners)
			for i := range ts {
				ts[i] = randView(l)
			}
			blk := canberra.NewLengthBlock(ts, 0, batchPartners)
			dists := make([]float32, batchPartners)
			reps := 200000 / l * 8
			t := lenTiming{Len: l, PerCallNsOp: perCall(x, y, reps)}
			batchNs := timeIt(100*time.Millisecond, func() {
				for i := 0; i < reps/batchPartners+1; i++ {
					blk.Row(x, -1, canberra.DefaultPenalty, dists)
					sink += float64(dists[0])
				}
			})
			t.BatchNsPair = batchNs / float64(reps/batchPartners+1) / batchPartners
			v.Equal = append(v.Equal, t)
		}
		for _, sh := range slides {
			s, t := randView(sh[0]), randView(sh[1])
			reps := 100000 / sh[1] * 16
			v.Sliding = append(v.Sliding, slidingTiming{
				Shape: fmt.Sprintf("%dx%d", sh[0], sh[1]),
				NsOp:  perCall(s, t, reps),
			})
		}
		out = append(out, v)
	}
	if sink == math.Inf(1) {
		log.Fatal("benchperf: sink overflow")
	}
	var scalar8 float64
	for _, v := range out {
		if v.Kernel == "scalar" {
			scalar8 = v.Equal[0].PerCallNsOp
		}
	}
	for i := range out {
		out[i].Equal8VsScalar = scalar8 / out[i].Equal[0].PerCallNsOp
		out[i].Batch8VsPR1 = pr1EqualLen8NsOp / out[i].Equal[0].BatchNsPair
	}
	return out
}

// measureScaling sweeps GOMAXPROCS over powers of two up to the host's
// CPU count and times the three parallel stages at each setting. On a
// single-core host the sweep degenerates to one point with efficiency
// 1.0 by definition — the shard still documents the harness and the
// host limit.
func measureScaling(n int, seed int64) *scalingResult {
	pool := genPool(n, mixedLens, seed)
	k := kMax(n)
	host := runtime.NumCPU()
	var procs []int
	for p := 1; p < host; p *= 2 {
		procs = append(procs, p)
	}
	procs = append(procs, host)

	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	res := &scalingResult{N: n, HostCPUs: host}
	if host == 1 {
		res.Note = "single-CPU host: the sweep has one point and parallel " +
			"efficiency is 1.0 by definition; rerun on a multicore host for " +
			"meaningful scaling data"
	}
	const floor = 500 * time.Millisecond
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		pt := scalingPoint{Procs: p}
		pt.MatrixNs = int64(timeIt(floor, func() {
			if _, err := dissim.Compute(pool, canberra.DefaultPenalty); err != nil {
				log.Fatalf("benchperf: scaling Compute(n=%d, p=%d): %v", n, p, err)
			}
		}))
		m, err := dissim.Compute(pool, canberra.DefaultPenalty)
		if err != nil {
			log.Fatalf("benchperf: scaling Compute(n=%d, p=%d): %v", n, p, err)
		}
		pt.KNNNs = int64(timeIt(floor, func() {
			if _, err := m.KNNTable(k); err != nil {
				log.Fatalf("benchperf: scaling KNNTable(n=%d, p=%d): %v", n, p, err)
			}
		}))
		pt.TiledNs = int64(timeIt(floor, func() {
			tm, err := dissim.ComputeMatrix(pool, dissim.Config{
				Penalty: canberra.DefaultPenalty,
				Backend: dissim.BackendTiled,
			})
			if err != nil {
				log.Fatalf("benchperf: scaling tiled(n=%d, p=%d): %v", n, p, err)
			}
			if _, err := tm.KNNTable(k); err != nil {
				log.Fatalf("benchperf: scaling tiled KNNTable(n=%d, p=%d): %v", n, p, err)
			}
			if err := tm.Close(); err != nil {
				log.Fatalf("benchperf: scaling tiled Close(n=%d, p=%d): %v", n, p, err)
			}
		}))
		res.Points = append(res.Points, pt)
	}
	base := res.Points[0]
	for i := range res.Points {
		pt := &res.Points[i]
		pf := float64(pt.Procs)
		pt.MatrixEff = float64(base.MatrixNs) / (pf * float64(pt.MatrixNs))
		pt.KNNEff = float64(base.KNNNs) / (pf * float64(pt.KNNNs))
		pt.TiledEff = float64(base.TiledNs) / (pf * float64(pt.TiledNs))
	}
	return res
}

func kMax(n int) int {
	k := int(math.Round(math.Log(float64(n))))
	if k < 2 {
		k = 2
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// constrainedBudget returns a tile budget that forces eviction and
// spill at size n: a quarter of the condensed footprint, floored at
// 1 MiB so the store keeps a useful working set.
func constrainedBudget(n int) int64 {
	b := int64(n) * int64(n-1) / 2 * 4 / 4
	if b < 1<<20 {
		b = 1 << 20
	}
	return b
}

// measureBackends times a full matrix-build + k-NN pass through each
// storage backend. The tiled backend computes tiles lazily during the
// k-NN pass, so build and query are timed as one unit everywhere to
// keep the numbers comparable.
func measureBackends(pool *dissim.Pool, n, k int, spill string) []backendResult {
	pairs := n * (n - 1) / 2
	cands := []struct {
		label   string
		backend string
		budget  int64
	}{
		{"condensed", dissim.BackendCondensed, 0},
		{"tiled", dissim.BackendTiled, 0},
		{"tiled+spill", dissim.BackendTiled, constrainedBudget(n)},
	}
	const floor = 500 * time.Millisecond
	var out []backendResult
	for _, c := range cands {
		var resident int64
		total := int64(timeIt(floor, func() {
			m, err := dissim.ComputeMatrix(pool, dissim.Config{
				Penalty:      canberra.DefaultPenalty,
				Backend:      c.backend,
				MemoryBudget: c.budget,
				SpillDir:     spill,
			})
			if err != nil {
				log.Fatalf("benchperf: ComputeMatrix(%s, n=%d): %v", c.label, n, err)
			}
			if _, err := m.KNNTable(k); err != nil {
				log.Fatalf("benchperf: KNNTable(%s, n=%d): %v", c.label, n, err)
			}
			resident = m.ResidentBytes()
			if err := m.Close(); err != nil {
				log.Fatalf("benchperf: Close(%s, n=%d): %v", c.label, n, err)
			}
		}))
		out = append(out, backendResult{
			Backend:       c.label,
			BudgetBytes:   c.budget,
			TotalNs:       total,
			NsPerPair:     float64(total) / float64(pairs),
			ResidentBytes: resident,
		})
	}
	for i := range out {
		out[i].VsCondensed = float64(out[0].TotalNs) / float64(out[i].TotalNs)
	}
	return out
}

func measureShape(n int, seed int64) shapeResult {
	pool := genPool(n, mixedLens, seed)
	pairs := n * (n - 1) / 2
	res := shapeResult{N: n, Pairs: pairs, KMax: kMax(n)}

	rng := rand.New(rand.NewSource(seed + 1))
	res.Kernel = measureKernel(rng)

	// Average over at least half a second per stage so small shapes do
	// not report single-run noise; the n = 8000 matrix builds exceed
	// the floor in one run anyway.
	const floor = 500 * time.Millisecond
	optNs := int64(timeIt(floor, func() {
		if _, err := dissim.Compute(pool, canberra.DefaultPenalty); err != nil {
			log.Fatalf("benchperf: Compute(n=%d): %v", n, err)
		}
	}))
	refNs := int64(timeIt(floor, func() {
		if _, err := dissim.ComputeReference(pool, canberra.DefaultPenalty); err != nil {
			log.Fatalf("benchperf: ComputeReference(n=%d): %v", n, err)
		}
	}))
	res.MatrixBuild = stageResult{
		OptimizedNs: optNs,
		ReferenceNs: refNs,
		NsPerOp:     float64(optNs) / float64(pairs),
		RefNsPerOp:  float64(refNs) / float64(pairs),
		Speedup:     float64(refNs) / float64(optNs),
	}

	m, err := dissim.Compute(pool, canberra.DefaultPenalty)
	if err != nil {
		log.Fatalf("benchperf: Compute(n=%d): %v", n, err)
	}
	optKNN := int64(timeIt(floor, func() {
		if _, err := m.KNNTable(res.KMax); err != nil {
			log.Fatalf("benchperf: KNNTable(n=%d): %v", n, err)
		}
	}))
	refKNN := int64(timeIt(floor, func() {
		if _, err := m.KNNTableSort(res.KMax); err != nil {
			log.Fatalf("benchperf: KNNTableSort(n=%d): %v", n, err)
		}
	}))
	res.KNNTable = stageResult{
		OptimizedNs: optKNN,
		ReferenceNs: refKNN,
		NsPerOp:     float64(optKNN) / float64(n),
		RefNsPerOp:  float64(refKNN) / float64(n),
		Speedup:     float64(refKNN) / float64(optKNN),
	}

	spill, err := os.MkdirTemp("", "benchperf-tiles-")
	if err != nil {
		log.Fatalf("benchperf: spill dir: %v", err)
	}
	defer func() {
		// Best-effort scratch cleanup; the spill file is already
		// unlinked, so a leftover directory is empty.
		_ = os.RemoveAll(spill)
	}()
	res.Backends = measureBackends(pool, n, res.KMax, spill)
	return res
}

// genClusteredSegs builds n unique segment values drawn from a small
// set of templates with positional jitter, so DBSCAN has real density
// structure to find (unlike genPool's uniform noise).
func genClusteredSegs(n int, seed int64) []netmsg.Segment {
	rng := rand.New(rand.NewSource(seed))
	lens := []int{4, 6, 8, 8, 12, 12, 16, 16}
	const templates = 12
	tmpl := make([][]byte, templates)
	for t := range tmpl {
		b := make([]byte, lens[t%len(lens)])
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		tmpl[t] = b
	}
	seen := make(map[string]bool, n)
	segs := make([]netmsg.Segment, 0, n)
	for len(segs) < n {
		base := tmpl[rng.Intn(templates)]
		b := make([]byte, len(base))
		copy(b, base)
		// Jitter up to three positions by a small signed delta: close
		// in Canberra terms, yet combinatorially rich enough to yield
		// 50k+ unique values per template set.
		for j := rng.Intn(3) + 1; j > 0; j-- {
			p := rng.Intn(len(b))
			b[p] = byte(int(b[p]) + rng.Intn(17) - 8)
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		segs = append(segs, netmsg.Segment{Msg: &netmsg.Message{Data: b}, Offset: 0, Length: len(b)})
	}
	return segs
}

// sameClustering reports whether two pipeline results are bit-identical:
// same ε, same clusters with the same unique-member index lists, same
// noise count.
func sameClustering(a, b *core.Result) error {
	if math.Float64bits(a.Config.Epsilon) != math.Float64bits(b.Config.Epsilon) {
		return fmt.Errorf("epsilon mismatch: %v vs %v", a.Config.Epsilon, b.Config.Epsilon)
	}
	if len(a.Clusters) != len(b.Clusters) {
		return fmt.Errorf("cluster count mismatch: %d vs %d", len(a.Clusters), len(b.Clusters))
	}
	for i := range a.Clusters {
		ai, bi := a.Clusters[i].UniqueIndexes, b.Clusters[i].UniqueIndexes
		if len(ai) != len(bi) {
			return fmt.Errorf("cluster %d size mismatch: %d vs %d", i, len(ai), len(bi))
		}
		for j := range ai {
			if ai[j] != bi[j] {
				return fmt.Errorf("cluster %d member %d mismatch: %d vs %d", i, j, ai[j], bi[j])
			}
		}
	}
	if len(a.Noise) != len(b.Noise) {
		return fmt.Errorf("noise count mismatch: %d vs %d", len(a.Noise), len(b.Noise))
	}
	return nil
}

// runE2E clusters an n-segment clustered pool end to end through the
// tiled backend under the given budget, cross-checks against the
// condensed backend when n permits, and writes the result file.
func runE2E(n int, budget int64, spill string, seed int64, out string) {
	if spill == "" {
		dir, err := os.MkdirTemp("", "benchperf-e2e-tiles-")
		if err != nil {
			log.Fatalf("benchperf: spill dir: %v", err)
		}
		defer func() {
			// Best-effort scratch cleanup (spill file is unlinked).
			_ = os.RemoveAll(dir)
		}()
		spill = dir
	}
	segs := genClusteredSegs(n, seed)
	p := core.DefaultParams()
	p.MatrixBackend = dissim.BackendTiled
	p.MemoryBudget = budget
	p.MatrixSpillDir = spill

	log.Printf("benchperf: e2e n=%d budget=%d via tiled backend ...", n, budget)
	start := time.Now()
	res, err := core.ClusterSegments(segs, p)
	if err != nil {
		log.Fatalf("benchperf: e2e ClusterSegments: %v", err)
	}
	elapsed := time.Since(start)
	resident := res.Matrix.ResidentBytes()
	if got := res.Matrix.Backend(); got != dissim.BackendTiled {
		log.Fatalf("benchperf: e2e backend = %q, want %q", got, dissim.BackendTiled)
	}
	if err := res.Matrix.Close(); err != nil {
		log.Fatalf("benchperf: e2e Close: %v", err)
	}

	e := &e2eResult{
		N:              n,
		UniqueSegments: res.Pool.Size(),
		BudgetBytes:    budget,
		ElapsedNs:      elapsed.Nanoseconds(),
		Epsilon:        res.Config.Epsilon,
		Clusters:       len(res.Clusters),
		NoiseSegments:  len(res.Noise),
		ResidentBytes:  resident,
	}

	// Cross-check labels against the condensed in-memory backend where
	// its footprint is trivially affordable; every backend must agree
	// bit for bit.
	if n <= 5000 {
		pc := core.DefaultParams()
		pc.MatrixBackend = dissim.BackendCondensed
		ref, err := core.ClusterSegments(segs, pc)
		if err != nil {
			log.Fatalf("benchperf: e2e condensed reference: %v", err)
		}
		if err := ref.Matrix.Close(); err != nil {
			log.Fatalf("benchperf: e2e reference Close: %v", err)
		}
		if err := sameClustering(res, ref); err != nil {
			log.Fatalf("benchperf: tiled vs condensed divergence: %v", err)
		}
		e.CrossChecked = true
	}

	f := benchFile{
		Bench:      5,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "end-to-end clustering through the bounded-memory tiled matrix " +
			"backend; labels cross-checked bit-for-bit against the condensed " +
			"backend when n <= 5000",
		E2E: e,
	}
	writeBenchFile(out, f)
	fmt.Printf("e2e n=%d unique=%d: %d clusters, %d noise, eps=%.6f, %.1fs, resident=%d bytes, cross-checked=%v\n",
		e.N, e.UniqueSegments, e.Clusters, e.NoiseSegments, e.Epsilon,
		elapsed.Seconds(), e.ResidentBytes, e.CrossChecked)
}

// writeBenchFile marshals f and writes it to path; "/dev/null" works
// because os.WriteFile truncates rather than creates over a device.
func writeBenchFile(path string, f benchFile) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("benchperf: wrote %s", path)
}

func main() {
	out := flag.String("out", "BENCH_6.json", "output path")
	sizes := flag.String("sizes", "500,2000,8000", "comma-separated unique-segment counts")
	seed := flag.Int64("seed", 1, "pool generation seed")
	kernel := flag.String("kernel", "", "force a canberra kernel (see canberra.Kernels); default: auto/PROTOCLUST_KERNEL")
	scalingN := flag.Int("scaling-n", 2000, "unique-segment count for the GOMAXPROCS scaling sweep (0 disables)")
	scalingOnly := flag.Bool("scaling-only", false, "run only the scaling sweep (make bench-scaling smoke)")
	e2eN := flag.Int("e2e-n", 0, "run the end-to-end tiled-backend pipeline on an n-segment clustered pool instead of the stage benchmarks")
	e2eBudget := flag.Int64("e2e-budget", 2<<30, "with -e2e-n: tile LRU byte budget for the tiled backend")
	e2eSpill := flag.String("e2e-spill", "", "with -e2e-n: tile spill directory (default: a fresh temp dir)")
	flag.Parse()

	if err := canberra.EnvError(); err != nil {
		log.Printf("benchperf: warning: %v (fell back to auto kernel selection)", err)
	}
	if *kernel != "" {
		if err := canberra.SetKernel(*kernel); err != nil {
			log.Fatalf("benchperf: -kernel: %v", err)
		}
	}
	log.Printf("benchperf: active kernel %s (compiled in: %v)", canberra.ActiveKernel(), canberra.Kernels())

	if *e2eN > 0 {
		runE2E(*e2eN, *e2eBudget, *e2eSpill, *seed, *out)
		return
	}

	if *scalingOnly {
		if *scalingN <= 0 {
			log.Fatal("benchperf: -scaling-only needs -scaling-n > 0")
		}
		log.Printf("benchperf: scaling sweep n=%d ...", *scalingN)
		f := benchFile{
			Bench:      6,
			Generated:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Kernel:     canberra.ActiveKernel(),
			Note:       "GOMAXPROCS scaling sweep only (make bench-scaling)",
			Scaling:    measureScaling(*scalingN, *seed),
		}
		writeBenchFile(*out, f)
		printScaling(f.Scaling)
		return
	}

	var ns []int
	for _, s := range splitComma(*sizes) {
		var n int
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 10 {
			log.Fatalf("benchperf: bad size %q", s)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		log.Fatal("benchperf: no sizes given")
	}

	f := benchFile{
		Bench:      6,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     canberra.ActiveKernel(),
		Note: "dissimilarity hot path: optimized = dispatched SIMD kernel + batched " +
			"equal-length runs + early abandon + tiled scheduling + bounded-heap k-NN; " +
			"reference = pre-kernel per-pair/per-row implementations kept in " +
			"internal/dissim/reference.go; kernel_variants = every compiled kernel on " +
			"this host over fixed inputs, batch_len8_speedup_vs_pr1 against the PR-1 " +
			"scalar kernel's 12.174 ns/op (BENCH_1.json); backends = matrix build + " +
			"full k-NN pass per storage backend; scaling = GOMAXPROCS sweep of the " +
			"three parallel stages",
	}
	log.Printf("benchperf: measuring kernel variants ...")
	f.Kernels = measureKernelVariants(rand.New(rand.NewSource(*seed)))
	for _, n := range ns {
		log.Printf("benchperf: measuring n=%d ...", n)
		f.Shapes = append(f.Shapes, measureShape(n, *seed))
	}
	if *scalingN > 0 {
		log.Printf("benchperf: scaling sweep n=%d ...", *scalingN)
		f.Scaling = measureScaling(*scalingN, *seed)
	}

	writeBenchFile(*out, f)
	for _, v := range f.Kernels {
		fmt.Printf("kernel %-11s eq8 %6.2f ns/op  batch8 %6.2f ns/pair  vs-scalar %5.2fx  vs-pr1 %5.2fx\n",
			v.Kernel, v.Equal[0].PerCallNsOp, v.Equal[0].BatchNsPair,
			v.Equal8VsScalar, v.Batch8VsPR1)
	}
	for _, s := range f.Shapes {
		fmt.Printf("n=%5d  matrix %6.2fx  knn %6.2fx  kernel eq %5.2fx sliding %5.2fx\n",
			s.N, s.MatrixBuild.Speedup, s.KNNTable.Speedup,
			s.Kernel.EqualLengthSpeedx, s.Kernel.SlidingSpeedx)
		for _, b := range s.Backends {
			fmt.Printf("         backend %-12s %8.1f ns/pair  resident %11d B  vs condensed %5.2fx\n",
				b.Backend, b.NsPerPair, b.ResidentBytes, b.VsCondensed)
		}
	}
	printScaling(f.Scaling)
}

// printScaling writes the scaling shard's summary lines to stdout.
func printScaling(s *scalingResult) {
	if s == nil {
		return
	}
	if s.Note != "" {
		fmt.Printf("scaling n=%d: %s\n", s.N, s.Note)
	}
	for _, pt := range s.Points {
		fmt.Printf("scaling p=%2d  matrix %8.1fms eff %4.2f  knn %8.1fms eff %4.2f  tiled %8.1fms eff %4.2f\n",
			pt.Procs,
			float64(pt.MatrixNs)/1e6, pt.MatrixEff,
			float64(pt.KNNNs)/1e6, pt.KNNEff,
			float64(pt.TiledNs)/1e6, pt.TiledEff)
	}
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
