// Package nemesys implements the NEMESYS heuristic segmenter (Kleber,
// Kopp, Kargl: "NEMESYS: Network Message Syntax Reverse Engineering by
// Analysis of the Intrinsic Structure of Individual Messages",
// WOOT 2018).
//
// NEMESYS infers probable field boundaries from each message alone: the
// bit congruence between consecutive bytes measures how many bit
// positions two adjacent bytes share; drops in its smoothed delta mark
// likely field starts. A refinement merges runs of printable characters
// into single char-sequence segments. The paper (Section IV-C) finds
// NEMESYS deals best with large and complex messages mixing numbers and
// chars.
package nemesys

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"protoclust/internal/netmsg"
	"protoclust/internal/segment"
)

// Segmenter is the NEMESYS bit-congruence segmenter. The zero value is
// ready to use with the published defaults.
type Segmenter struct {
	// Sigma is the Gaussian smoothing radius for the bit-congruence
	// deltas; 0 means the WOOT'18 default of 0.6.
	Sigma float64
	// MinCharRun is the minimum printable run length merged into one
	// char segment; 0 means the default of 4.
	MinCharRun int
}

var _ segment.Segmenter = (*Segmenter)(nil)

// Name returns "nemesys".
func (*Segmenter) Name() string { return "nemesys" }

// Segment splits every message at the inferred boundaries. NEMESYS
// operates per message and never fails on trace size; ctx is checked
// once per message (one message is one bounded unit of smoothing and
// boundary-extraction work).
func (s *Segmenter) Segment(ctx context.Context, tr *netmsg.Trace) ([]netmsg.Segment, error) {
	sigma := s.Sigma
	if sigma <= 0 {
		sigma = 0.6
	}
	minRun := s.MinCharRun
	if minRun <= 0 {
		minRun = 4
	}
	var out []netmsg.Segment
	for _, m := range tr.Messages {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("nemesys: %w", err)
		}
		out = append(out, segmentMessage(m, sigma, minRun)...)
	}
	return out, nil
}

// segmentMessage runs the per-message heuristic: bit-congruence deltas,
// Gaussian smoothing, boundary extraction, char-run refinement.
func segmentMessage(m *netmsg.Message, sigma float64, minRun int) []netmsg.Segment {
	data := m.Data
	if len(data) <= 2 {
		if len(data) == 0 {
			return nil
		}
		return []netmsg.Segment{{Msg: m, Offset: 0, Length: len(data)}}
	}

	bc := bitCongruence(data)
	delta := make([]float64, len(bc)-1)
	for i := 1; i < len(bc); i++ {
		delta[i-1] = bc[i] - bc[i-1]
	}
	smoothed := gaussianSmooth(delta, sigma)

	// A boundary is placed before byte index i when the smoothed delta
	// has a local minimum there followed by a rise: the bit congruence
	// dropped the most between field end and field start.
	//
	// delta[j] corresponds to the transition into byte j+1; a local
	// minimum at j therefore suggests a boundary at byte j+1.
	var boundaries []int
	for j := 0; j < len(smoothed); j++ {
		prev := math.Inf(1)
		if j > 0 {
			prev = smoothed[j-1]
		}
		next := math.Inf(1)
		if j+1 < len(smoothed) {
			next = smoothed[j+1]
		}
		if smoothed[j] < 0 && smoothed[j] <= prev && smoothed[j] < next {
			boundaries = append(boundaries, j+1)
		}
	}

	boundaries = mergeCharRuns(data, boundaries, minRun)
	return segment.FromBoundaries(m, boundaries)
}

// bitCongruence returns, per byte pair (i-1, i), the fraction of equal
// bit positions; index 0 corresponds to the pair (0, 1).
func bitCongruence(data []byte) []float64 {
	out := make([]float64, len(data)-1)
	for i := 1; i < len(data); i++ {
		out[i-1] = float64(8-bits.OnesCount8(data[i-1]^data[i])) / 8
	}
	return out
}

// gaussianSmooth convolves xs with a Gaussian kernel of the given sigma
// (kernel radius 3σ, at least 1), reflecting at the edges.
func gaussianSmooth(xs []float64, sigma float64) []float64 {
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float64, 2*radius+1)
	var sum float64
	for i := range kernel {
		x := float64(i - radius)
		kernel[i] = math.Exp(-x * x / (2 * sigma * sigma))
		sum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= sum
	}
	out := make([]float64, len(xs))
	for i := range xs {
		var v float64
		for k := -radius; k <= radius; k++ {
			j := i + k
			// Reflect at the boundaries.
			if j < 0 {
				j = -j
			}
			if j >= len(xs) {
				j = 2*(len(xs)-1) - j
			}
			if j < 0 {
				j = 0
			}
			v += xs[j] * kernel[k+radius]
		}
		out[i] = v
	}
	return out
}

// isPrintable reports whether b is a printable ASCII char (the WOOT'18
// char class: space through tilde).
func isPrintable(b byte) bool { return b >= 0x20 && b <= 0x7e }

// mergeCharRuns removes boundaries inside maximal printable runs of at
// least minRun bytes and adds boundaries at the run edges, so char
// sequences become single segments (NEMESYS's char refinement).
func mergeCharRuns(data []byte, boundaries []int, minRun int) []int {
	inRun := make([]bool, len(data))
	runStart := -1
	flush := func(end int) {
		if runStart >= 0 && end-runStart >= minRun {
			for i := runStart; i < end; i++ {
				inRun[i] = true
			}
		}
		runStart = -1
	}
	for i, b := range data {
		if isPrintable(b) {
			if runStart < 0 {
				runStart = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(data))

	var out []int
	for _, b := range boundaries {
		// Keep boundaries that do not fall strictly inside a char run.
		if b > 0 && b < len(data) && inRun[b] && inRun[b-1] {
			continue
		}
		out = append(out, b)
	}
	// Add run-edge boundaries.
	for i := 1; i < len(data); i++ {
		if inRun[i] && !inRun[i-1] {
			out = append(out, i)
		}
		if !inRun[i] && inRun[i-1] {
			out = append(out, i)
		}
	}
	return out
}
