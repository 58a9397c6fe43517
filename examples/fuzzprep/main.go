// Fuzzing preparation: turn pseudo data types into a smart-fuzzer
// configuration.
//
// The paper motivates field type clustering with smart fuzzing: knowing
// which message bytes belong to the same value domain tells a fuzzer
// where to mutate and which values are plausible. This example clusters
// a DHCP trace and derives, per pseudo data type, a value-domain
// summary (lengths, byte ranges, observed constants) plus a mutation
// dictionary of boundary values — the artifacts a fuzzer like Pulsar
// would consume.
//
// Run with:
//
//	go run ./examples/fuzzprep
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"protoclust"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fuzzprep:", err)
		os.Exit(1)
	}
}

// domain summarizes one pseudo data type's value domain.
type domain struct {
	id         int
	segments   int
	minLen     int
	maxLen     int
	loByte     byte
	hiByte     byte
	constant   bool
	dictionary []string
}

func run() error {
	tr, err := protoclust.GenerateTrace("dhcp", 1000, 1)
	if err != nil {
		return err
	}
	analysis, err := protoclust.AnalyzeContext(context.Background(), tr, protoclust.DefaultOptions())
	if err != nil {
		return err
	}

	fmt.Printf("DHCP: %d pseudo data types cover %.0f%% of the trace\n\n",
		len(analysis.PseudoTypes()), analysis.Coverage()*100)

	var domains []domain
	for _, pt := range analysis.PseudoTypes() {
		d := domain{id: pt.ID, segments: len(pt.Segments), minLen: 1 << 30, loByte: 0xff}
		for _, v := range pt.UniqueValues {
			if len(v) < d.minLen {
				d.minLen = len(v)
			}
			if len(v) > d.maxLen {
				d.maxLen = len(v)
			}
			for _, b := range v {
				if b < d.loByte {
					d.loByte = b
				}
				if b > d.hiByte {
					d.hiByte = b
				}
			}
		}
		d.constant = len(pt.UniqueValues) == 1

		// Mutation dictionary: smallest and largest observed values plus
		// a boundary-flip of the first value.
		vals := append([][]byte(nil), pt.UniqueValues...)
		sort.Slice(vals, func(i, j int) bool { return string(vals[i]) < string(vals[j]) })
		d.dictionary = append(d.dictionary, fmt.Sprintf("%x", vals[0]))
		if len(vals) > 1 {
			d.dictionary = append(d.dictionary, fmt.Sprintf("%x", vals[len(vals)-1]))
		}
		flip := append([]byte(nil), vals[0]...)
		for i := range flip {
			flip[i] ^= 0xff
		}
		d.dictionary = append(d.dictionary, fmt.Sprintf("%x", flip))
		domains = append(domains, d)
	}

	fmt.Println("fuzzer field model (one entry per pseudo data type):")
	for _, d := range domains {
		strategy := "mutate-within-domain"
		if d.constant {
			strategy = "keep-constant (protocol magic / padding)"
		}
		fmt.Printf("  type %2d: %5d sites, len %d..%d, bytes [0x%02x..0x%02x] → %s\n",
			d.id, d.segments, d.minLen, d.maxLen, d.loByte, d.hiByte, strategy)
		if !d.constant {
			fmt.Printf("           dictionary: %v\n", d.dictionary)
		}
	}

	fmt.Println("\nhigh-entropy noise segments (checksums/signatures — recompute, don't mutate):",
		len(analysis.Noise()))

	// Beyond boundary values: train a value generation model per pseudo
	// data type (the paper's Section V direction) and sample plausible
	// in-domain values a generational fuzzer would inject.
	fmt.Println("\ngenerated in-domain candidate values (value model, seed 1):")
	rng := rand.New(rand.NewSource(1))
	for _, pt := range analysis.PseudoTypes() {
		if len(pt.UniqueValues) < 2 {
			continue // constants: nothing to generate
		}
		model, err := pt.TrainValueModel()
		if err != nil {
			continue
		}
		samples := make([]string, 0, 3)
		for i := 0; i < 3; i++ {
			samples = append(samples, fmt.Sprintf("%x", model.Generate(rng)))
		}
		fmt.Printf("  type %2d: %v\n", pt.ID, samples)
	}
	return nil
}
