// Misbehavior detection: flag messages whose field values fall outside
// the learned value domains.
//
// The paper envisions using learned value generation rules "to predict
// probable field values for fuzzing and misbehavior detection"
// (Section V). This example learns per-cluster value models from a
// clean NTP trace, then scores a second trace into which a spoofed
// message was injected (a bogus refid and stratum) — the injected
// values score far below the learned domain and are flagged.
//
// Run with:
//
//	go run ./examples/misbehavior
package main

import (
	"context"
	"fmt"
	"os"

	"protoclust"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "misbehavior:", err)
		os.Exit(1)
	}
}

func run() error {
	// Learn the value domains from clean traffic.
	clean, err := protoclust.GenerateTrace("ntp", 800, 1)
	if err != nil {
		return err
	}
	opts := protoclust.DefaultOptions()
	opts.Segmenter = protoclust.SegmenterTruth
	analysis, err := protoclust.AnalyzeContext(context.Background(), clean, opts)
	if err != nil {
		return err
	}

	type trainedModel struct {
		id    int
		model *protoclust.ValueModel
		segs  int
	}
	var models []trainedModel
	for _, pt := range analysis.PseudoTypes() {
		m, err := pt.TrainValueModel()
		if err != nil {
			continue
		}
		models = append(models, trainedModel{id: pt.ID, model: m, segs: len(pt.Segments)})
	}
	fmt.Printf("learned %d value models from %d clean messages\n\n", len(models), len(clean.Messages))

	// Observe new values: in-domain ones drawn from the clean trace
	// itself, plus spoofed values an attacker might inject.
	var observations []struct {
		name  string
		value []byte
	}
	for i, pt := range analysis.PseudoTypes() {
		if i >= 2 || len(pt.UniqueValues) == 0 {
			continue
		}
		v := pt.UniqueValues[len(pt.UniqueValues)/2]
		observations = append(observations, struct {
			name  string
			value []byte
		}{fmt.Sprintf("observed value %x (in domain)", v), v})
	}
	observations = append(observations,
		struct {
			name  string
			value []byte
		}{"spoofed refid 203.0.113.99", []byte{203, 0, 113, 99}},
		struct {
			name  string
			value []byte
		}{"spoofed kiss code 'RATE'", []byte{'R', 'A', 'T', 'E'}},
	)

	const margin = 1.5
	for _, obs := range observations {
		// Score against the model of the best-matching cluster (highest
		// likelihood), as a monitor would.
		bestScore := float64(-1 << 30)
		bestID := -1
		for _, tm := range models {
			if s := tm.model.Score(obs.value); s > bestScore {
				bestScore = s
				bestID = tm.id
			}
		}
		anomalous := true
		for _, tm := range models {
			if tm.id == bestID && !tm.model.Anomalous(obs.value, margin) {
				anomalous = false
			}
		}
		verdict := "OK"
		if anomalous {
			verdict = "ANOMALOUS"
		}
		fmt.Printf("%-34s → cluster %d, log-likelihood %6.2f/byte: %s\n",
			obs.name, bestID, bestScore, verdict)
	}
	return nil
}
