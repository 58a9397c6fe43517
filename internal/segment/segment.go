// Package segment defines the message segmenter abstraction (Section
// III-B): a segmenter splits each message of a trace into segments —
// field candidates — without knowledge of the true format. The
// ground-truth segmenter (perfect dissector output, used for Table I)
// lives here; the heuristic segmenters NEMESYS, Netzob, and CSP live in
// subpackages.
package segment

import (
	"context"
	"errors"
	"fmt"

	"protoclust/internal/netmsg"
)

// Segmenter splits the messages of a trace into field candidates.
type Segmenter interface {
	// Name returns the segmenter's short name for reports.
	Name() string
	// Segment returns all segments of all messages of the trace. The
	// segments of one message must tile it: sorted, gap-free, covering
	// every byte. Segment checks ctx before each unit of work (one
	// message, one alignment, one mining scan), so a done ctx fails it
	// with an error wrapping ctx.Err() before any message is segmented,
	// and a later cancellation within one unit.
	Segment(ctx context.Context, tr *netmsg.Trace) ([]netmsg.Segment, error)
}

// Run segments the trace with s under ctx; it is the segmentation
// entry of the pipeline and the configuration sweep.
func Run(ctx context.Context, s Segmenter, tr *netmsg.Trace) ([]netmsg.Segment, error) {
	return s.Segment(ctx, tr)
}

// ErrBudgetExceeded is returned by heuristic segmenters whose work
// budget is exhausted — reproducing the paper's four failing analysis
// runs (Section IV-C: "Four analysis runs fail due to exceeding runtime
// or memory constraints").
var ErrBudgetExceeded = errors.New("segment: work budget exceeded")

// GroundTruth is the perfect segmenter: it emits exactly the true
// fields from the generators' dissections, emulating Wireshark
// dissector output (Table I's baseline).
type GroundTruth struct{}

var _ Segmenter = GroundTruth{}

// Name returns "truth".
func (GroundTruth) Name() string { return "truth" }

// Segment returns the ground-truth fields of every message as segments.
// Messages without a dissection are an error: ground truth was
// requested but is unavailable. The work is one pass over the trace, so
// ctx is checked once, up front.
func (GroundTruth) Segment(ctx context.Context, tr *netmsg.Trace) ([]netmsg.Segment, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("segment: truth: %w", err)
	}
	for i, m := range tr.Messages {
		if m.Fields == nil {
			return nil, fmt.Errorf("segment: message %d has no ground-truth dissection", i)
		}
	}
	return tr.TrueSegments(), nil
}

// Validate checks the segmenter contract on a result: segments of each
// message are sorted, non-overlapping, and tile the message.
func Validate(tr *netmsg.Trace, segs []netmsg.Segment) error {
	perMsg := make(map[*netmsg.Message][]netmsg.Segment)
	for _, s := range segs {
		perMsg[s.Msg] = append(perMsg[s.Msg], s)
	}
	for i, m := range tr.Messages {
		ms := perMsg[m]
		pos := 0
		for _, s := range ms {
			if s.Offset != pos {
				return fmt.Errorf("segment: message %d: segment at %d, expected %d", i, s.Offset, pos)
			}
			if s.Length <= 0 {
				return fmt.Errorf("segment: message %d: non-positive segment length %d at %d", i, s.Length, s.Offset)
			}
			pos = s.End()
		}
		if pos != len(m.Data) {
			return fmt.Errorf("segment: message %d: segments cover %d of %d bytes", i, pos, len(m.Data))
		}
	}
	return nil
}

// FromBoundaries converts per-message boundary sets into segments. The
// boundaries are byte offsets where a new segment starts; 0 and len are
// implicit. Duplicate and out-of-range boundaries are ignored.
func FromBoundaries(m *netmsg.Message, boundaries []int) []netmsg.Segment {
	l := len(m.Data)
	if l == 0 {
		return nil
	}
	marks := make([]bool, l+1)
	for _, b := range boundaries {
		if b > 0 && b < l {
			marks[b] = true
		}
	}
	var segs []netmsg.Segment
	start := 0
	for i := 1; i <= l; i++ {
		if i == l || marks[i] {
			segs = append(segs, netmsg.Segment{Msg: m, Offset: start, Length: i - start})
			start = i
		}
	}
	return segs
}
