package segment_test

import (
	"context"
	"errors"
	"testing"

	"protoclust/internal/netmsg"
	"protoclust/internal/segment"
	"protoclust/internal/segment/csp"
	"protoclust/internal/segment/nemesys"
	"protoclust/internal/segment/netzob"
)

// TestRunCanceledBeforeAnyMessage holds every heuristic segmenter to
// the Segmenter contract's first clause: an already-cancelled ctx fails
// with context.Canceled before any message is segmented. The trace's
// messages are nil, so touching one would panic.
func TestRunCanceledBeforeAnyMessage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := &netmsg.Trace{Messages: make([]*netmsg.Message, 3)}
	for _, s := range []segment.Segmenter{
		&nemesys.Segmenter{}, &netzob.Segmenter{}, &csp.Segmenter{},
	} {
		t.Run(s.Name(), func(t *testing.T) {
			segs, err := segment.Run(ctx, s, tr)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if segs != nil {
				t.Errorf("segments = %v, want none", segs)
			}
		})
	}
}
