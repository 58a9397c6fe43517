package netzob

import (
	"context"
	"testing"

	"protoclust/internal/netmsg"
	"protoclust/internal/segment"
)

// FuzzSegment hardens the alignment segmenter: any in-budget run must
// tile the trace; budget errors are acceptable, panics are not.
func FuzzSegment(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 2, 9, 3, 4})
	f.Add([]byte{0xAA}, []byte{0xAA, 0xBB})
	f.Add([]byte{}, []byte{5, 5, 5})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 256 || len(b) > 256 {
			return
		}
		msgs := []*netmsg.Message{}
		if len(a) > 0 {
			msgs = append(msgs, &netmsg.Message{Data: a})
		}
		if len(b) > 0 {
			msgs = append(msgs, &netmsg.Message{Data: b})
		}
		if len(msgs) == 0 {
			return
		}
		tr := &netmsg.Trace{Messages: msgs}
		segs, err := (&Segmenter{Budget: 1 << 20}).Segment(context.Background(), tr)
		if err != nil {
			return
		}
		if err := segment.Validate(tr, segs); err != nil {
			t.Fatalf("invalid tiling for %x/%x: %v", a, b, err)
		}
	})
}
