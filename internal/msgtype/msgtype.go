// Package msgtype clusters whole messages into message types, in the
// spirit of NEMETYL (Kleber, van der Heijden, Kargl: "Message Type
// Identification of Binary Network Protocols using Continuous Segment
// Similarity", INFOCOM 2020) — the companion analysis the paper builds
// on and explicitly delegates to ("we do not consider clustering whole
// messages into different message types since previous work ... already
// achieves this", Section II).
//
// Messages are compared by the Canberra dissimilarity of their aligned
// segment sequences: segments are matched greedily in order, unmatched
// tails are penalized, and the resulting message dissimilarity matrix
// is clustered with the same auto-configured DBSCAN used for field
// clustering. Splitting a trace by message type before field-type
// clustering sharpens per-type value distributions.
package msgtype

import (
	"context"
	"errors"
	"fmt"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
	"protoclust/internal/netmsg"
	"protoclust/internal/segment"
	"protoclust/internal/vecmath"
)

// Params configures message-type clustering.
type Params struct {
	// Penalty is the Canberra length-mismatch penalty for segment
	// comparison; 0 means canberra.DefaultPenalty.
	Penalty float64
}

// Result is a message-type clustering outcome.
type Result struct {
	// Types maps each type ID to its member messages.
	Types [][]*netmsg.Message
	// Noise holds messages assigned to no type.
	Noise []*netmsg.Message
	// Epsilon is the DBSCAN radius used.
	Epsilon float64
}

// minPts is DBSCAN's min_samples for message types.
const minPts = 3

// ErrTooFewMessages is returned for traces below the minimum population.
var ErrTooFewMessages = errors.New("msgtype: need at least three messages")

// Cluster groups the trace's messages into message types using the
// given segmenter, run under ctx, for the per-message segment
// sequences.
func Cluster(ctx context.Context, tr *netmsg.Trace, seg segment.Segmenter, p Params) (*Result, error) {
	msgs := tr.Messages
	if len(msgs) < 3 {
		return nil, fmt.Errorf("%w (have %d)", ErrTooFewMessages, len(msgs))
	}
	if p.Penalty <= 0 {
		p.Penalty = canberra.DefaultPenalty
	}

	segs, err := seg.Segment(ctx, tr)
	if err != nil {
		return nil, fmt.Errorf("msgtype: segmentation: %w", err)
	}
	perMsg := make(map[*netmsg.Message][]netmsg.Segment, len(msgs))
	for _, s := range segs {
		perMsg[s.Msg] = append(perMsg[s.Msg], s)
	}

	n := len(msgs)
	matrix, err := dbscan.NewCondensedMatrix(n)
	if err != nil {
		return nil, fmt.Errorf("msgtype: matrix: %w", err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, err := messageDissimilarity(perMsg[msgs[i]], perMsg[msgs[j]], p.Penalty)
			if err != nil {
				return nil, fmt.Errorf("msgtype: pair (%d,%d): %w", i, j, err)
			}
			matrix.Set(i, j, d)
		}
	}

	eps := autoEpsilon(matrix)
	res, err := dbscan.Cluster(matrix, eps, minPts)
	if err != nil {
		return nil, fmt.Errorf("msgtype: dbscan: %w", err)
	}
	clusters, noise := res.Clusters()

	out := &Result{Epsilon: eps}
	for _, c := range clusters {
		group := make([]*netmsg.Message, 0, len(c))
		for _, idx := range c {
			group = append(group, msgs[idx])
		}
		out.Types = append(out.Types, group)
	}
	for _, idx := range noise {
		out.Noise = append(out.Noise, msgs[idx])
	}
	return out, nil
}

// messageDissimilarity compares two messages as sequences of segments:
// corresponding segments (in order) contribute their Canberra
// dissimilarity weighted by length; unmatched trailing segments count
// as fully dissimilar.
func messageDissimilarity(a, b []netmsg.Segment, penalty float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 0, nil
		}
		return 1, nil
	}
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	var weighted float64
	var weight float64
	for i, s := range short {
		t := long[i]
		d, err := canberra.DissimilarityPenalty(s.Bytes(), t.Bytes(), penalty)
		if err != nil {
			return 0, err
		}
		w := float64(s.Length + t.Length)
		weighted += d * w
		weight += w
	}
	for _, t := range long[len(short):] {
		w := float64(t.Length)
		weighted += 1 * w
		weight += w
	}
	if weight == 0 {
		return 0, nil
	}
	return weighted / weight, nil
}

// autoEpsilon derives a DBSCAN radius from the 1-NN distance
// distribution of the message matrix: the knee-free, robust variant
// (60th percentile of nearest-neighbor distances) — message-type
// structure is much coarser than field-type structure, so the full
// Algorithm 1 machinery is unnecessary here.
func autoEpsilon(m *dbscan.CondensedMatrix) float64 {
	n := m.Len()
	nn := make([]float64, n)
	for i := 0; i < n; i++ {
		best := 2.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if d := m.Dist(i, j); d < best {
				best = d
			}
		}
		nn[i] = best
	}
	eps := vecmath.Percentile(nn, 60)
	if eps <= 0 {
		eps = 0.05
	}
	return eps
}
