package protoclust_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"protoclust"
)

// ExampleAnalyzeContext_minimal shows the minimal end-to-end analysis: generate a
// trace, cluster its field data types, and inspect the result.
func ExampleAnalyzeContext_minimal() {
	tr, err := protoclust.GenerateTrace("ntp", 200, 1)
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	opts := protoclust.DefaultOptions()
	opts.Segmenter = protoclust.SegmenterTruth
	analysis, err := protoclust.AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		fmt.Println("analyze:", err)
		return
	}
	fmt.Println("clusters found:", len(analysis.PseudoTypes()) > 0)
	fmt.Printf("coverage above half: %v\n", analysis.Coverage() > 0.5)
	m := analysis.Evaluate()
	fmt.Printf("precision at least 0.95: %v\n", m.Precision >= 0.95)
	// Output:
	// clusters found: true
	// coverage above half: true
	// precision at least 0.95: true
}

// ExampleAnalyzeContext bounds an analysis with a timeout: the context
// is threaded through the segmenter, the O(n²) dissimilarity matrix
// build, and refinement, so an expired deadline aborts the run promptly
// with context.DeadlineExceeded instead of finishing the matrix.
func ExampleAnalyzeContext() {
	tr, err := protoclust.GenerateTrace("ntp", 200, 1)
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	opts := protoclust.DefaultOptions()
	opts.Segmenter = protoclust.SegmenterTruth
	analysis, err := protoclust.AnalyzeContext(ctx, tr, opts)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Println("analysis exceeded the deadline")
		return
	}
	if err != nil {
		fmt.Println("analyze:", err)
		return
	}
	fmt.Println("clusters found:", len(analysis.PseudoTypes()) > 0)
	fmt.Println("stages timed:", len(analysis.Timings()))
	// Output:
	// clusters found: true
	// stages timed: 3
}

// ExampleGenerateTrace lists the built-in protocol generators.
func ExampleGenerateTrace() {
	for _, p := range protoclust.Protocols() {
		tr, err := protoclust.GenerateTrace(p, 3, 1)
		if err != nil {
			fmt.Println(p, "error")
			continue
		}
		fmt.Println(p, len(tr.Messages))
	}
	// Output:
	// au 3
	// awdl 3
	// dhcp 3
	// dns 3
	// modbus 3
	// nbns 3
	// ntp 3
	// smb 3
}

// ExampleRunFieldHunter demonstrates the baseline's context dependency:
// it works on IP traffic but cannot analyze link-layer protocols.
func ExampleRunFieldHunter() {
	dns, _ := protoclust.GenerateTrace("dns", 200, 1)
	if res, err := protoclust.RunFieldHunter(dns); err == nil {
		fmt.Println("dns fields found:", len(res.Fields) > 0)
	}
	awdl, _ := protoclust.GenerateTrace("awdl", 50, 1)
	if _, err := protoclust.RunFieldHunter(awdl); err != nil {
		fmt.Println("awdl: inference impossible without IP context")
	}
	// Output:
	// dns fields found: true
	// awdl: inference impossible without IP context
}

// ExamplePseudoType_TrainValueModel trains a value generator for one
// pseudo data type and checks a training value is recognized.
func ExamplePseudoType_TrainValueModel() {
	tr, _ := protoclust.GenerateTrace("ntp", 150, 1)
	opts := protoclust.DefaultOptions()
	opts.Segmenter = protoclust.SegmenterTruth
	analysis, err := protoclust.AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		fmt.Println("analyze:", err)
		return
	}
	pt := analysis.PseudoTypes()[0]
	model, err := pt.TrainValueModel()
	if err != nil {
		fmt.Println("train:", err)
		return
	}
	fmt.Println("training value recognized:", model.Seen(pt.UniqueValues[0]))
	// Output:
	// training value recognized: true
}
