// Quickstart: cluster the field data types of an NTP trace.
//
// The example generates a synthetic 1000-message NTP trace, runs the
// full pipeline with ground-truth segmentation (the Table I setting),
// and prints the resulting pseudo data types with sample values — the
// timestamps, addresses, and small integers separate without the
// analysis ever being told those types exist.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	"protoclust"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	tr, err := protoclust.GenerateTrace("ntp", 1000, 1)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d NTP messages (%d bytes)\n", len(tr.Messages), tr.TotalBytes())

	opts := protoclust.DefaultOptions()
	opts.Segmenter = protoclust.SegmenterTruth // perfect boundaries, as in Table I
	analysis, err := protoclust.AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		return err
	}

	fmt.Printf("DBSCAN auto-configuration: eps=%.3f, min_samples=%d\n",
		analysis.Epsilon(), analysis.MinSamples())
	fmt.Printf("clustered %d unique segments into %d pseudo data types\n\n",
		analysis.UniqueSegments(), len(analysis.PseudoTypes()))

	for _, pt := range analysis.PseudoTypes() {
		fmt.Printf("pseudo data type %d — %d segments, %d distinct values, e.g. %v\n",
			pt.ID, len(pt.Segments), len(pt.UniqueValues), pt.SampleValues(3))
	}

	// The generator provides ground truth, so the clustering can be
	// scored with the paper's metrics.
	m := analysis.Evaluate()
	fmt.Printf("\nprecision=%.2f recall=%.2f F1/4=%.2f coverage=%.0f%%\n",
		m.Precision, m.Recall, m.FScore, m.Coverage*100)
	return nil
}
