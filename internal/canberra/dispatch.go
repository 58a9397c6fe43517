package canberra

// Kernel dispatch. Each kernelImpl bundles the inner-loop entry points
// DissimViews and LengthBlock.Row need; the package selects one
// implementation at init — the best the CPU it is running on can run —
// and stores it in the package-level pointer `active`. The indirection
// costs one predictable indirect call per pair or run — noise next to
// the loops behind it — and buys a single binary that runs everywhere.
//
// The CPU probe is the only selector: the arch kernel (avx2 on amd64)
// is active when its available() probe passes, scalar otherwise; every
// other architecture runs scalar. Every kernel returns the scalar
// kernel's bits, so the choice moves speed only, never a stored
// distance. The avx2 probe checks real CPU features (AVX2+FMA and OS
// ymm-state support via XGETBV), so a binary built with asm still falls
// back to scalar on an old machine. Building with -tags noasm compiles
// the arch kernel out and leaves scalar alone.

// kernelImpl is one full implementation of the kernel inner loops.
type kernelImpl struct {
	name string
	// minWindow returns the minimum normalized window distance of s slid
	// over t (0 < |s| < |t|), equivalent to minWindowScalar.
	minWindow func(s, t View) float64
	// lanes is the run entry of LengthBlock.Row (idea 6 in kernel.go):
	// for the partners p ≥ from of one lane-interleaved length run it
	// stores out[run.idx[p]−lo] = float32(DissimViews(s, partner p, pf)),
	// where c = (|t|−|s|)·pf is the blend's penalty weight. Row hands it
	// runs of len(s) and, for unequal lengths, runs with both lengths at
	// most laneMaxLen that the penalty does not saturate. Results are
	// bit-identical to lanesScalar.
	lanes func(s View, run *laneRun, from, lo int, c float64, out []float32)
	// available reports whether this kernel can run on this machine.
	// nil means always available.
	available func() bool
}

// kernels is the registry of every implementation compiled into this
// binary. Architecture files append to it from their init functions;
// the scalar kernel is always present and comes first.
var kernels = []*kernelImpl{scalarKernel}

var scalarKernel = &kernelImpl{
	name:      "scalar",
	minWindow: minWindowScalar,
	lanes:     lanesScalar,
}

// active is the kernel DissimViews dispatches through. Never nil.
var active = scalarKernel

// register appends an architecture kernel to the registry and
// activates it when this CPU can run it. Called from the per-arch init
// functions; a build compiles at most one arch kernel, which beats
// scalar whenever its probe passes.
func register(k *kernelImpl) {
	kernels = append(kernels, k)
	if k.available == nil || k.available() {
		active = k
	}
}
