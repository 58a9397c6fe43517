//go:build !((linux || darwin) && !race)

package dissim

// allocFloats returns n zeroed float32 on the Go heap: the fallback
// where the platform has no mapping code here, and the race build,
// whose detector sees only heap accesses.
func allocFloats(n int) ([]float32, error) { return make([]float32, n), nil }

// freeFloats leaves the slice to the collector.
func freeFloats([]float32) error { return nil }
