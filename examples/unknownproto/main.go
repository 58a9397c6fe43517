// Unknown-protocol analysis: reverse engineering AWDL-style frames
// without any context.
//
// AWDL is a link-layer protocol without IP encapsulation, so rule-based
// approaches like FieldHunter cannot analyze it at all (they need
// addresses and request/response pairing). Pseudo-data-type clustering
// only needs the message bytes: this example segments the frames
// heuristically with NEMESYS, clusters the segments, and reports the
// large-scale structure an analyst would start from.
//
// Run with:
//
//	go run ./examples/unknownproto
package main

import (
	"context"
	"fmt"
	"os"

	"protoclust"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unknownproto:", err)
		os.Exit(1)
	}
}

func run() error {
	// 768 frames, as in the paper's AWDL evaluation.
	tr, err := protoclust.GenerateTrace("awdl", 768, 1)
	if err != nil {
		return err
	}

	// Demonstrate that FieldHunter is inapplicable here.
	if _, err := protoclust.RunFieldHunter(tr); err != nil {
		fmt.Printf("FieldHunter: %v\n", err)
		fmt.Println("→ rule-based inference is impossible without IP context; clustering proceeds anyway")
	}

	opts := protoclust.DefaultOptions()
	opts.Segmenter = protoclust.SegmenterNEMESYS
	analysis, err := protoclust.AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		return err
	}

	fmt.Printf("\n%d unique segments → %d pseudo data types (eps=%.3f), coverage %.0f%%\n\n",
		analysis.UniqueSegments(), len(analysis.PseudoTypes()), analysis.Epsilon(), analysis.Coverage()*100)

	// Characterize every pseudo data type the way an analyst would:
	// how long are the values, do they look textual, how variable are
	// they?
	for _, pt := range analysis.PseudoTypes() {
		minLen, maxLen := 1<<30, 0
		printable := 0
		total := 0
		for _, v := range pt.UniqueValues {
			if len(v) < minLen {
				minLen = len(v)
			}
			if len(v) > maxLen {
				maxLen = len(v)
			}
			for _, b := range v {
				total++
				if b >= 0x20 && b <= 0x7e {
					printable++
				}
			}
		}
		kind := "binary"
		if total > 0 && float64(printable)/float64(total) > 0.85 {
			kind = "text-like"
		}
		fmt.Printf("type %2d: %4d segments, len %d..%d bytes, %s, e.g. %v\n",
			pt.ID, len(pt.Segments), minLen, maxLen, kind, pt.SampleValues(2))
	}

	fmt.Printf("\nnoise (unclusterable high-entropy content): %d segments\n", len(analysis.Noise()))

	// Cluster-level semantic deduction (Section V future work): even
	// without context, value/length/time correlations name some
	// clusters.
	fmt.Println("\ndeduced semantics:")
	for _, d := range analysis.DeduceSemantics() {
		if d.Label == "unknown" {
			continue
		}
		fmt.Printf("  type %2d: %-13s (confidence %.2f, %s)\n", d.ClusterID, d.Label, d.Confidence, d.Detail)
	}
	return nil
}
