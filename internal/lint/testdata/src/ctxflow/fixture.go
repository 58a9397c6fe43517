// Package fixture seeds ctxflow violations for the analyzer tests.
package fixture

import "context"

// Compute is a ctx-first entry point: it threads the context it is
// given, which is the one shape ctxflow accepts.
func Compute(ctx context.Context, n int) int {
	_ = ctx
	return n
}

// Analyze manufactures a fresh context despite holding one.
func Analyze(ctx context.Context, n int) int {
	return Compute(context.Background(), n) // want `already receives a ctx`
}

// Wrapper is the old single-statement compatibility shape; without a
// ctx of its own it still severs cancellation for its callers.
func Wrapper(n int) int {
	return Compute(context.Background(), n) // want `context\.Background\(\) in Wrapper severs cancellation`
}

// Todo defers the context decision, which is never allowed.
func Todo(n int) int {
	return Compute(context.TODO(), n) // want `context\.TODO\(\)`
}

// Bare manufactures a root context in a library function.
func Bare(n int) int {
	c := context.Background() // want `context\.Background\(\) in Bare severs cancellation`
	return Compute(c, n)
}

// Suppressed keeps a root context with a documented reason.
func Suppressed(n int) int {
	//lint:ignore ctxflow fixture: deliberate suppressed example
	root := context.Background()
	return Compute(root, n)
}
