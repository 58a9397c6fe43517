package canberra

import (
	"fmt"
	"os"
	"sort"
)

// Kernel dispatch. Each kernelImpl bundles the inner-loop entry points
// DissimViews and LengthBlock.Row need; the package selects one
// implementation at init (best available for the CPU it is running on)
// and stores it in the package-level pointer `active`. The indirection
// costs one predictable indirect call per pair or run — noise next to
// the loops behind it — and buys a single binary that runs everywhere
// plus cheap A/B benchmarking between kernels on the same host.
//
// Selection order for "auto": avx2 > neon > scalar, taking the first
// kernel whose available() probe passes. Every kernel returns the
// scalar kernel's bits, so the choice moves speed only, never a stored
// distance. The probe for the asm kernels checks real CPU features
// (e.g. AVX2+FMA and OS ymm-state support via XGETBV), so a binary
// built with asm still falls back to scalar on an old machine.

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
// the scalar kernel is always present.
var kernels = []*kernelImpl{scalarKernel}

var scalarKernel = &kernelImpl{
	name:      "scalar",
	minWindow: minWindowScalar,
	lanes:     lanesScalar,
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

// autoKernel returns the best available kernel: the registry is
// ordered scalar-first, arch kernels appended after, and later
// registrations win.
func autoKernel() *kernelImpl {
	best := scalarKernel
	for _, k := range kernels {
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
// fell back to auto selection). The commands log it at startup instead
// of silently ignoring a typo.
func EnvError() error {
	return envErr
}
