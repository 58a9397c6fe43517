// FieldHunter comparison: rule-based inference vs. data type clustering
// on the same DNS trace (the Section IV-D experiment in miniature).
//
// FieldHunter deduces the concrete type of the one or two fields its
// heuristic rules recognize — typically a transaction ID — and leaves
// the rest of the message unintelligible (~3 % byte coverage on
// average). Clustering makes no attempt to name types but groups almost
// every field with its equals, covering most of the trace.
//
// Run with:
//
//	go run ./examples/fieldhunter
package main

import (
	"context"
	"fmt"
	"os"

	"protoclust"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fieldhunter:", err)
		os.Exit(1)
	}
}

func run() error {
	tr, err := protoclust.GenerateTrace("dns", 1000, 1)
	if err != nil {
		return err
	}

	// Rule-based baseline.
	fh, err := protoclust.RunFieldHunter(tr)
	if err != nil {
		return err
	}
	fmt.Println("FieldHunter inferences:")
	for _, f := range fh.Fields {
		fmt.Printf("    offset %2d, %d bytes: %-12s (%s)\n", f.Offset, f.Width, f.Kind, f.Direction)
	}
	fmt.Printf("    coverage: %.1f%% of trace bytes\n\n", fh.Coverage*100)

	// Pseudo data type clustering on heuristic segments.
	opts := protoclust.DefaultOptions()
	analysis, err := protoclust.AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		return err
	}
	fmt.Printf("Clustering: %d pseudo data types, coverage %.1f%%\n",
		len(analysis.PseudoTypes()), analysis.Coverage()*100)
	for _, pt := range analysis.PseudoTypes() {
		fmt.Printf("    type %2d: %5d segments, e.g. %v\n", pt.ID, len(pt.Segments), pt.SampleValues(2))
	}

	ratio := analysis.Coverage() / fh.Coverage
	fmt.Printf("\nclustering covers %.0f× more message bytes than the rule-based baseline\n", ratio)
	return nil
}
