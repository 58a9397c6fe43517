//go:build (linux || darwin) && !race

package dissim

import (
	"fmt"
	"syscall"
	"unsafe"
)

// allocFloats returns n zeroed float32 in an anonymous private mapping,
// outside the Go heap: the condensed matrix is an analysis's one large
// object, and on the heap it would count toward the GC's heap goal and
// linger as garbage after Close until the next cycle. freeFloats unmaps
// it. The race build keeps the heap fallback, whose accesses the race
// detector can see.
func allocFloats(n int) ([]float32, error) {
	if n == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes: %w", n*4, err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n), nil
}

// freeFloats unmaps a slice allocFloats returned; nil is a no-op.
func freeFloats(f []float32) error {
	if len(f) == 0 {
		return nil
	}
	if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*4)); err != nil {
		return fmt.Errorf("dissim: unmap condensed matrix: %w", err)
	}
	return nil
}
