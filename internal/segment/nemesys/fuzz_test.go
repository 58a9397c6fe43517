package nemesys

import (
	"context"
	"testing"

	"protoclust/internal/netmsg"
	"protoclust/internal/segment"
)

// FuzzSegmentMessage hardens the per-message heuristic: any byte string
// must segment without panic into a valid tiling.
func FuzzSegmentMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n"))
	f.Add([]byte{0xd2, 0x3d, 0x19, 0x03, 0xb3, 0xfc, 0xda, 0xb1})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := &netmsg.Message{Data: data}
		tr := &netmsg.Trace{Messages: []*netmsg.Message{m}}
		segs, err := (&Segmenter{}).Segment(context.Background(), tr)
		if err != nil {
			t.Fatalf("Segment errored on %x: %v", data, err)
		}
		if err := segment.Validate(tr, segs); err != nil {
			t.Fatalf("invalid tiling for %x: %v", data, err)
		}
	})
}
