package canberra

import (
	"math"
	"math/rand"
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

// checkKernel compares one kernel against scalar on one input pair, bit
// for bit.
func checkKernel(t *testing.T, k *kernelImpl, s, u View, pf float64) {
	t.Helper()
	want := dissimViews(scalarKernel, s, u, pf)
	got := dissimViews(k, s, u, pf)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("kernel %s diverges from scalar on (%v, %v, pf=%v): got %v (%x) want %v (%x)",
			k.name, s, u, pf, got, math.Float64bits(got), want, math.Float64bits(want))
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

// TestKernelSelectedByCPUProbe pins the CPU probe as the only selector: the
// active kernel is the last registered kernel this CPU can run, so an
// arch kernel whose probe passes is never left behind scalar.
func TestKernelSelectedByCPUProbe(t *testing.T) {
	if kernels[0] != scalarKernel {
		t.Fatalf("registry starts with %s, want scalar", kernels[0].name)
	}
	want := scalarKernel
	for _, k := range kernels[1:] {
		if k.available == nil || k.available() {
			want = k
		}
	}
	if active != want {
		t.Fatalf("active kernel = %s, want %s (registered %d kernels)", active.name, want.name, len(kernels))
	}
	t.Logf("active kernel: %s", active.name)
}
