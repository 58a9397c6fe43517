package canberra

import (
	"fmt"
	"os"
	"sort"
)

// Kernel dispatch. Each kernelImpl bundles the two inner-loop entry
// points DissimViews needs; the package selects one implementation at
// init (best available for the CPU it is running on) and stores it in
// the package-level pointer `active`. The indirection costs one
// predictable indirect call per pair — noise next to the loops behind
// it — and buys a single binary that runs everywhere plus cheap A/B
// benchmarking between kernels on the same host.
//
// Selection order for "auto": avx2 > neon > scalar, taking the first
// kernel whose available() probe passes. The float32 kernels are never
// auto-selected: they trade one float32 ulp of the stored value for
// speed, so they are strictly opt-in (PROTOCLUST_KERNEL=scalar-f32 or
// SetKernel). The probe for the asm kernels checks real CPU features
// (e.g. AVX2+FMA and OS ymm-state support via XGETBV), so a binary
// built with asm still falls back to scalar on an old machine.

// kernelImpl is one full implementation of the two kernel inner loops.
type kernelImpl struct {
	name string
	// dist returns the raw (un-normalized) Canberra distance between two
	// equal-length non-empty views.
	dist func(x, y View) float64
	// distBatch fills out[j] = dist(x, ys[j]) / float64(len(x)) — the
	// normalized equal-length dissimilarity — for equal-length partners.
	// Optional (nil → per-pair dist calls); the asm kernels provide it
	// to amortize call overhead on short segments, and fold the
	// normalizing division into the store.
	distBatch func(x View, ys []View, out []float64)
	// minWindow returns the minimum normalized window distance of s slid
	// over t (0 < |s| < |t|), equivalent to minWindowScalar.
	minWindow func(s, t View) float64
	// lanes is the run entry of LengthBlock.Row (idea 6 in kernel.go):
	// for the partners p ≥ from of one lane-interleaved length run it
	// stores out[run.idx[p]−lo] = float32(DissimViews(s, partner p, pf)),
	// where c = (|t|−|s|)·pf is the blend's penalty weight. Row hands it
	// runs of len(s) and, for unequal lengths, runs with both lengths at
	// most laneMaxLen that the penalty does not saturate. Results are
	// bit-identical to lanesScalar. Optional (nil → per-pair calls); only
	// exact kernels provide it, since the float32 kernels confirm their
	// windows one pair at a time.
	lanes func(s View, run *laneRun, from, lo int, c float64, out []float32)
	// available reports whether this kernel can run on this machine.
	// nil means always available.
	available func() bool
	// exact is true for kernels that return bit-identical float64
	// results to the scalar kernel, false for the float32 variants.
	exact bool
}

// kernels is the registry of every implementation compiled into this
// binary. Architecture files append to it from their init functions;
// the scalar kernel is always present.
var kernels = []*kernelImpl{scalarKernel}

var scalarKernel = &kernelImpl{
	name:      "scalar",
	dist:      distScalar,
	minWindow: minWindowScalar,
	lanes:     lanesScalar,
	exact:     true,
}

// active is the kernel DissimViews dispatches through. Never nil.
var active = scalarKernel

// envKernel is the environment variable that overrides kernel
// selection; accepted values are kernel names, "noasm" (alias for
// scalar), and "auto"/"" (default CPU-feature selection).
const envKernel = "PROTOCLUST_KERNEL"

// envErr records a PROTOCLUST_KERNEL value that did not resolve at
// init. Init cannot fail, so the package falls back to auto selection
// and stashes the error here for EnvError.
var envErr error

func init() {
	// Per-arch files register their kernels from their own init
	// functions, which Go runs in file-name order relative to this one;
	// register() re-runs selection, so the order is irrelevant.
	selectAtInit()
}

// selectAtInit resolves the initial kernel from the environment. It is
// a separate function so tests can exercise it.
func selectAtInit() {
	envErr = nil
	want := os.Getenv(envKernel)
	if want == "" || want == "auto" {
		active = autoKernel()
		return
	}
	if err := SetKernel(want); err != nil {
		envErr = err
		active = autoKernel()
	}
}

// autoKernel returns the best available exact kernel: the registry is
// ordered scalar-first, arch kernels appended after, and later exact
// registrations win.
func autoKernel() *kernelImpl {
	best := scalarKernel
	for _, k := range kernels {
		if !k.exact {
			continue
		}
		if k.available == nil || k.available() {
			best = k
		}
	}
	return best
}

// register appends an architecture kernel to the registry and re-runs
// selection, keeping any explicit env choice sticky. Called from
// per-arch init functions, which may run before or after this file's
// init — re-selection makes the order irrelevant.
func register(k *kernelImpl) {
	kernels = append(kernels, k)
	selectAtInit()
}

// SetKernel switches the active kernel by name. "noasm" selects the
// scalar kernel; "auto" re-runs CPU-feature selection. Unknown names
// and kernels whose CPU probe fails return an error and leave the
// active kernel unchanged. Not safe to call concurrently with
// DissimViews — switch kernels before starting pipeline work.
func SetKernel(name string) error {
	if name == "auto" {
		active = autoKernel()
		return nil
	}
	if name == "noasm" {
		name = "scalar"
	}
	for _, k := range kernels {
		if k.name != name {
			continue
		}
		if k.available != nil && !k.available() {
			return fmt.Errorf("canberra: kernel %q is not supported on this CPU", name)
		}
		active = k
		return nil
	}
	return fmt.Errorf("canberra: unknown kernel %q (have %v)", name, Kernels())
}

// ActiveKernel returns the name of the kernel DissimViews currently
// dispatches to.
func ActiveKernel() string {
	return active.name
}

// Kernels returns the names of every kernel compiled into this binary,
// sorted, regardless of whether the current CPU supports them.
func Kernels() []string {
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
	}
	sort.Strings(names)
	return names
}

// EnvError reports whether the PROTOCLUST_KERNEL environment variable
// was set to a value that could not be resolved at init (the package
// fell back to auto selection). Surfaced by cmd layers that want to
// warn instead of silently ignoring a typo.
func EnvError() error {
	return envErr
}

// KernelExact reports whether the named kernel returns bit-identical
// float64 results to the scalar kernel (false for the float32
// screening variants, and for unknown names).
func KernelExact(name string) bool {
	for _, k := range kernels {
		if k.name == name {
			return k.exact
		}
	}
	return false
}
