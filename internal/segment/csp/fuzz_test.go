package csp

import (
	"context"
	"testing"

	"protoclust/internal/netmsg"
	"protoclust/internal/segment"
)

// FuzzSegment hardens CSP against arbitrary message content: any
// non-failing segmentation must tile the trace.
func FuzzSegment(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 2, 3, 4})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte("GET /index"), []byte("GET /other"))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		tr := &netmsg.Trace{Messages: []*netmsg.Message{{Data: a}, {Data: b}}}
		s := &Segmenter{MinCount: 2, Budget: 1 << 16}
		segs, err := s.Segment(context.Background(), tr)
		if err != nil {
			return // budget exhaustion is acceptable
		}
		if err := segment.Validate(tr, segs); err != nil {
			t.Fatalf("invalid tiling for %x/%x: %v", a, b, err)
		}
	})
}
