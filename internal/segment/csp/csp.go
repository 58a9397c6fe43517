// Package csp implements a segmenter based on the Contiguous Sequential
// Pattern algorithm (Goo, Shim, Lee, Kim: "Protocol Specification
// Extraction Based on Contiguous Sequential Pattern Algorithm", IEEE
// Access 2019).
//
// CSP mines frequent contiguous byte-strings across the trace
// (Apriori-style: a (k+1)-gram is a candidate only if both its k-prefix
// and k-suffix are frequent) and treats matches as static fields; the
// gaps between matches become dynamic field candidates. Because it
// depends on recurring values, CSP "is more dependent on the variance
// in the trace [and] best applied to large traces" (Section IV-C). Its
// memory use grows with the number of distinct frequent patterns; the
// work budget reproduces the paper's failing AWDL-768 run.
package csp

import (
	"context"
	"fmt"
	"math"

	"protoclust/internal/netmsg"
	"protoclust/internal/segment"
)

// Defaults of the miner.
const (
	// DefaultMaxPatternLength caps mined pattern length.
	DefaultMaxPatternLength = 16
	// DefaultBudget caps the number of distinct frequent patterns
	// tracked across all levels; exceeding it aborts the analysis
	// (memory-constraint emulation, calibrated per DESIGN.md §2 so the
	// paper's failing AWDL-768 run exceeds it while all other
	// evaluation runs fit).
	DefaultBudget = 5200
	// minCountFloor is the smallest absolute occurrence count for a
	// pattern to be frequent.
	minCountFloor = 20
	// minCountShare scales the frequency threshold with trace size.
	minCountShare = 0.05
)

// Segmenter is the CSP frequency-analysis segmenter.
type Segmenter struct {
	// MaxPatternLength caps the mined pattern length; 0 means
	// DefaultMaxPatternLength.
	MaxPatternLength int
	// MinCount is the absolute occurrence threshold for frequent
	// patterns; 0 derives max(minCountFloor, minCountShare·messages).
	MinCount int
	// Budget caps the number of distinct frequent patterns; 0 means
	// DefaultBudget.
	Budget int
}

var _ segment.Segmenter = (*Segmenter)(nil)

// Name returns "csp".
func (*Segmenter) Name() string { return "csp" }

// Segment mines frequent contiguous patterns and splits every message
// at the match boundaries. ctx is checked once per message during both
// pattern mining and match splitting (one message scan is the bounded
// unit of work).
func (s *Segmenter) Segment(ctx context.Context, tr *netmsg.Trace) ([]netmsg.Segment, error) {
	maxLen := s.MaxPatternLength
	if maxLen <= 0 {
		maxLen = DefaultMaxPatternLength
	}
	budget := s.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	minCount := s.MinCount
	if minCount <= 0 {
		minCount = int(math.Ceil(minCountShare * float64(len(tr.Messages))))
		if minCount < minCountFloor {
			minCount = minCountFloor
		}
	}

	frequent, err := minePatterns(ctx, tr, maxLen, minCount, budget)
	if err != nil {
		return nil, err
	}

	var out []netmsg.Segment
	for _, m := range tr.Messages {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("csp: %w", err)
		}
		out = append(out, segmentMessage(m, frequent, maxLen)...)
	}
	return out, nil
}

// PatternCount mines with an unlimited budget and returns the number of
// distinct frequent patterns the trace produces — the quantity the work
// budget caps. Exposed for calibration and diagnostics. ctx is checked
// once per message scan of each mining round.
func PatternCount(ctx context.Context, tr *netmsg.Trace, maxPatternLength, minCount int) (int, error) {
	if maxPatternLength <= 0 {
		maxPatternLength = DefaultMaxPatternLength
	}
	if minCount <= 0 {
		minCount = int(math.Ceil(minCountShare * float64(len(tr.Messages))))
		if minCount < minCountFloor {
			minCount = minCountFloor
		}
	}
	frequent, err := minePatterns(ctx, tr, maxPatternLength, minCount, math.MaxInt)
	if err != nil {
		return 0, err
	}
	return len(frequent), nil
}

// minePatterns runs Apriori-style frequent contiguous pattern mining.
// The returned set maps pattern bytes (as string) to true for every
// frequent pattern of any mined length. The context is checked once per
// message scan.
func minePatterns(ctx context.Context, tr *netmsg.Trace, maxLen, minCount, budget int) (map[string]bool, error) {
	frequent := make(map[string]bool)

	// Level 2: count all 2-grams.
	counts := make(map[string]int)
	for _, m := range tr.Messages {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("csp: %w", err)
		}
		for i := 0; i+2 <= len(m.Data); i++ {
			counts[string(m.Data[i:i+2])]++
		}
	}
	level := make(map[string]bool)
	for g, c := range counts {
		if c >= minCount {
			level[g] = true
		}
	}

	total := 0
	for k := 3; len(level) > 0; k++ {
		for g := range level {
			frequent[g] = true
		}
		total += len(level)
		if total > budget {
			return nil, fmt.Errorf("%w: csp tracked %d frequent patterns, budget %d",
				segment.ErrBudgetExceeded, total, budget)
		}
		if k > maxLen {
			break
		}
		// Candidates: k-grams whose (k-1)-prefix and -suffix are both
		// frequent.
		next := make(map[string]int)
		for _, m := range tr.Messages {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("csp: %w", err)
			}
			for i := 0; i+k <= len(m.Data); i++ {
				g := m.Data[i : i+k]
				if !level[string(g[:k-1])] || !level[string(g[1:])] {
					continue
				}
				next[string(g)]++
			}
		}
		level = make(map[string]bool, len(next))
		for g, c := range next {
			if c >= minCount {
				level[g] = true
			}
		}
	}
	return frequent, nil
}

// segmentMessage splits one message: greedy longest-match scanning over
// the frequent pattern set; every match opens a static segment, bytes
// between matches form dynamic segments.
func segmentMessage(m *netmsg.Message, frequent map[string]bool, maxLen int) []netmsg.Segment {
	data := m.Data
	if len(data) == 0 {
		return nil
	}
	var boundaries []int
	pos := 0
	for pos < len(data) {
		matched := 0
		limit := maxLen
		if rem := len(data) - pos; rem < limit {
			limit = rem
		}
		for l := limit; l >= 2; l-- {
			if frequent[string(data[pos:pos+l])] {
				matched = l
				break
			}
		}
		if matched > 0 {
			boundaries = append(boundaries, pos, pos+matched)
			pos += matched
			continue
		}
		pos++
	}
	return segment.FromBoundaries(m, boundaries)
}
