package canberra

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// hostKernels returns every registered kernel that can run on this
// machine, scalar always first — the comparison baseline.
func hostKernels(t testing.TB) []*kernelImpl {
	t.Helper()
	avail := []*kernelImpl{scalarKernel}
	for _, k := range kernels {
		if k == scalarKernel {
			continue
		}
		if k.available != nil && !k.available() {
			t.Logf("kernel %s: not supported on this CPU, skipping", k.name)
			continue
		}
		avail = append(avail, k)
	}
	return avail
}

// ulp32 returns the distance in float32 ulps between two quantized
// values (the precision stored distances actually keep, see
// dbscan.Quantize).
func ulp32(a, b float64) int64 {
	ia := int64(int32(math.Float32bits(float32(a))))
	ib := int64(int32(math.Float32bits(float32(b))))
	d := ia - ib
	if d < 0 {
		d = -d
	}
	return d
}

// checkKernel compares one kernel against scalar on one input pair:
// exact kernels must match bit for bit, float32 kernels within one
// float32 ulp of the stored (quantized) value.
func checkKernel(t *testing.T, k *kernelImpl, s, u View, pf float64) {
	t.Helper()
	want := dissimViews(scalarKernel, s, u, pf)
	got := dissimViews(k, s, u, pf)
	if k.exact {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("kernel %s diverges from scalar on (%v, %v, pf=%v): got %v (%x) want %v (%x)",
				k.name, s, u, pf, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		return
	}
	if d := ulp32(got, want); d > 1 {
		t.Fatalf("kernel %s off by %d float32 ulps from scalar on (%v, %v, pf=%v): got %v want %v",
			k.name, d, s, u, pf, got, want)
	}
}

// TestKernelDispatchMatrix runs every available kernel over a grid of
// shapes chosen to hit each code path: equal lengths across all four
// tail residues (including the sub-vector lengths 1-3), sliding
// windows with every remainder the vector batches leave behind, and
// zero-sum / low-entropy segments that exercise recipSum[0] terms and
// the dmin = 0 early exit.
func TestKernelDispatchMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randView := func(n, mod int) View {
		v := make(View, n)
		for i := range v {
			v[i] = float64(rng.Intn(mod))
		}
		return v
	}
	for _, k := range hostKernels(t) {
		t.Run(k.name, func(t *testing.T) {
			// Equal length: every residue mod 4 (scalar tail), both
			// random and low-entropy content.
			for n := 1; n <= 21; n++ {
				for trial := 0; trial < 50; trial++ {
					mod := 256
					if trial%3 == 0 {
						mod = 2
					}
					checkKernel(t, k, randView(n, mod), randView(n, mod), DefaultPenalty)
				}
			}
			// All-zero segments: every term multiplies recipSum[0] = 0.
			checkKernel(t, k, make(View, 7), make(View, 7), DefaultPenalty)
			checkKernel(t, k, make(View, 5), make(View, 19), DefaultPenalty)
			// Sliding windows: length gaps that leave 0-7 remainder
			// windows after the vector batches, short and long.
			for _, ls := range []int{1, 2, 3, 4, 5, 8, 13} {
				for gap := 1; gap <= 17; gap++ {
					for trial := 0; trial < 10; trial++ {
						mod := 256
						if trial%3 == 0 {
							mod = 3
						}
						checkKernel(t, k, randView(ls, mod), randView(ls+gap, mod), DefaultPenalty)
					}
				}
			}
			// Penalty extremes on unequal lengths (saturation skip).
			for _, pf := range []float64{0, 1, 2, -0.5} {
				checkKernel(t, k, randView(3, 256), randView(9, 256), pf)
			}
		})
	}
}

// checkBatch compares one kernel's batched entry point with per-pair
// calls on the same inputs: exact kernels against the scalar kernel bit
// for bit, float32 kernels (which keep the per-pair path for unequal
// lengths) against their own per-pair results, also bit for bit.
func checkBatch(t *testing.T, k *kernelImpl, s View, ts []View, pf float64) {
	t.Helper()
	oracle := k
	if k.exact {
		oracle = scalarKernel
	}
	out := make([]float64, len(ts))
	dissimViewsBatch(k, s, ts, pf, out)
	for i, u := range ts {
		want := dissimViews(oracle, s, u, pf)
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("kernel %s: batch[%d] = %v, per-pair %s = %v (lens %d vs %d, pf=%v)",
				k.name, i, out[i], oracle.name, want, len(s), len(u), pf)
		}
	}
}

// TestDissimViewsBatch checks DissimViewsBatch on every kernel against
// per-pair calls: random mixed-length partner lists (runs of len(s)
// take the equal-length batch path, the rest the per-pair path), then
// rows aimed at the edges of the partner-lane shapes, which
// TestLengthBlockRow and FuzzLengthBlockRow drive through the run entry.
func TestDissimViewsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	randView := func(n, mod int) View {
		v := make(View, n)
		for i := range v {
			v[i] = float64(rng.Intn(mod))
		}
		return v
	}
	run := func(n, l, mod int) []View {
		ts := make([]View, n)
		for i := range ts {
			ts[i] = randView(l, mod)
		}
		return ts
	}
	// A length-2 view and a run of partners holding it at every offset
	// plus one that does not: exactly-zero windows, which per-pair scans
	// return early on.
	zs := View{7, 9}
	var zeroWindow []View
	for off := 0; off < 5; off++ {
		u := randView(6, 256)
		u[off], u[off+1] = 7, 9
		zeroWindow = append(zeroWindow, u)
	}
	zeroWindow = append(zeroWindow, randView(6, 256))
	edges := []struct {
		name string
		s    View
		ts   []View
		pf   float64
	}{
		{"zero window", zs, zeroWindow, DefaultPenalty},
		{"zero window, s longer", View{1, 7, 9, 4, 4, 4},
			[]View{{7, 9}, {4, 4}, {8, 8}, {9, 4}, {1, 7}, {2, 2}}, DefaultPenalty},
		{"pf > 1 saturates", randView(2, 256), run(6, 7, 256), 3},
		{"pf > 1 below saturation", randView(3, 256), run(6, 4, 256), 1.2},
		{"pf > 1 saturates, s longer", randView(9, 256), run(5, 3, 256), 2},
		{"pf < 0", randView(3, 256), append(run(5, 8, 256), run(5, 2, 256)...), -0.5},
		{"at the bound", randView(2, 256), run(7, laneMaxLen, 256), DefaultPenalty},
		{"at the bound, s longer", randView(laneMaxLen, 256), run(7, laneMaxLen-1, 256), DefaultPenalty},
		{"one past the bound", randView(3, 256), run(7, laneMaxLen+1, 256), DefaultPenalty},
		{"one past the bound, s longer", randView(laneMaxLen+1, 256), run(7, 4, 256), DefaultPenalty},
		{"empty run between runs", randView(4, 256),
			append(append(run(5, 6, 256), run(3, 0, 256)...), run(5, 2, 256)...), DefaultPenalty},
	}
	for _, k := range hostKernels(t) {
		t.Run(k.name, func(t *testing.T) {
			for trial := 0; trial < 200; trial++ {
				ls := 1 + rng.Intn(14)
				mod := 256
				if trial%4 == 0 {
					mod = 3
				}
				s := randView(ls, mod)
				var ts []View
				for len(ts) < 40 {
					// Runs of one length, as a LengthBlock produces,
					// sprinkled with single odd lengths.
					l := ls
					if rng.Intn(3) > 0 {
						l = 1 + rng.Intn(laneMaxLen+4)
					}
					ts = append(ts, run(1+rng.Intn(9), l, mod)...)
				}
				checkBatch(t, k, s, ts, DefaultPenalty)
			}
			for _, e := range edges {
				t.Run(e.name, func(t *testing.T) {
					checkBatch(t, k, e.s, e.ts, e.pf)
				})
			}
		})
	}
	// Empty s zero-fills the output, mirroring DissimViews.
	out := []float64{7, 7}
	DissimViewsBatch(nil, []View{randView(3, 256), randView(4, 256)}, DefaultPenalty, out)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty s: out = %v, want zeros", out)
	}
}

func TestSetKernel(t *testing.T) {
	orig := ActiveKernel()
	defer func() {
		if err := SetKernel(orig); err != nil {
			t.Fatal(err)
		}
	}()

	if err := SetKernel("scalar"); err != nil || ActiveKernel() != "scalar" {
		t.Fatalf("SetKernel(scalar): err=%v active=%s", err, ActiveKernel())
	}
	// noasm is an alias for scalar.
	if err := SetKernel("noasm"); err != nil || ActiveKernel() != "scalar" {
		t.Fatalf("SetKernel(noasm): err=%v active=%s", err, ActiveKernel())
	}
	if err := SetKernel("no-such-kernel"); err == nil {
		t.Fatal("SetKernel(no-such-kernel) succeeded")
	} else if ActiveKernel() != "scalar" {
		t.Fatalf("failed SetKernel changed active kernel to %s", ActiveKernel())
	}
	if err := SetKernel("auto"); err != nil {
		t.Fatalf("SetKernel(auto): %v", err)
	}
	// Auto must pick an exact kernel — the float32 kernels are opt-in.
	for _, k := range kernels {
		if k.name == ActiveKernel() && !k.exact {
			t.Fatalf("auto selected non-exact kernel %s", k.name)
		}
	}
	if !slices.Contains(Kernels(), "scalar") {
		t.Fatalf("Kernels() = %v, missing scalar", Kernels())
	}
	if !slices.IsSorted(Kernels()) {
		t.Fatalf("Kernels() = %v, not sorted", Kernels())
	}
}

func TestKernelEnvSelection(t *testing.T) {
	orig := ActiveKernel()
	defer func() {
		if err := SetKernel(orig); err != nil {
			t.Fatal(err)
		}
	}()

	t.Setenv(envKernel, "scalar")
	selectAtInit()
	if ActiveKernel() != "scalar" || EnvError() != nil {
		t.Fatalf("env=scalar: active=%s err=%v", ActiveKernel(), EnvError())
	}

	// An invalid value must fall back to auto and surface the error.
	t.Setenv(envKernel, "bogus")
	selectAtInit()
	if EnvError() == nil {
		t.Fatal("env=bogus: EnvError() = nil")
	}
	auto := autoKernel().name
	if ActiveKernel() != auto {
		t.Fatalf("env=bogus: active=%s, want auto fallback %s", ActiveKernel(), auto)
	}

	t.Setenv(envKernel, "auto")
	selectAtInit()
	if ActiveKernel() != auto || EnvError() != nil {
		t.Fatalf("env=auto: active=%s err=%v", ActiveKernel(), EnvError())
	}
}

// TestF32ScreeningNeverLosesBestWindow drives the float32 screening
// kernels through adversarial slowly-improving window sequences — the
// shape most likely to overflow the candidate buffer or to tempt the
// inflated bound into abandoning the true best window.
func TestF32ScreeningNeverLosesBestWindow(t *testing.T) {
	var f32 []*kernelImpl
	for _, k := range hostKernels(t) {
		if !k.exact {
			f32 = append(f32, k)
		}
	}
	if len(f32) == 0 {
		t.Skip("no float32 kernels available")
	}
	rng := rand.New(rand.NewSource(3))
	for _, k := range f32 {
		for trial := 0; trial < 300; trial++ {
			ls := 2 + rng.Intn(8)
			// A long t whose windows slowly converge toward a copy of s:
			// every window improves on the previous one.
			s := make(View, ls)
			for i := range s {
				s[i] = float64(rng.Intn(256))
			}
			nw := 20 + rng.Intn(60)
			u := make(View, 0, nw+ls)
			for w := 0; w < nw+ls; w++ {
				base := s[w%ls]
				noise := float64((nw - w) / 4)
				if noise > 0 {
					base += float64(rng.Intn(int(noise)+1)) - noise/2
				}
				if base < 0 {
					base = 0
				}
				if base > 255 {
					base = 255
				}
				u = append(u, math.Trunc(base))
			}
			checkKernel(t, k, s, u, DefaultPenalty)
		}
	}
}
