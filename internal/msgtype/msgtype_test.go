package msgtype

import (
	"context"
	"errors"
	"testing"

	"protoclust/internal/netmsg"
	"protoclust/internal/protocols"
	"protoclust/internal/segment"
	"protoclust/internal/segment/nemesys"
)

func TestClusterTooFew(t *testing.T) {
	tr := &netmsg.Trace{Messages: []*netmsg.Message{{Data: []byte{1, 2}}}}
	if _, err := Cluster(context.Background(), tr, &nemesys.Segmenter{}, Params{}); !errors.Is(err, ErrTooFewMessages) {
		t.Errorf("err = %v, want ErrTooFewMessages", err)
	}
}

// twoTypeTrace builds messages of two clearly different formats.
func twoTypeTrace(n int) *netmsg.Trace {
	tr := &netmsg.Trace{}
	for i := 0; i < n; i++ {
		var m *netmsg.Message
		if i%2 == 0 {
			// Type A: constant header + small counter.
			m = &netmsg.Message{
				Data: []byte{0xAA, 0xBB, 0xCC, 0xDD, 0, byte(i), 0, byte(i + 1)},
				Fields: []netmsg.Field{
					{Name: "hdr", Offset: 0, Length: 4, Type: netmsg.TypeBytes},
					{Name: "c1", Offset: 4, Length: 2, Type: netmsg.TypeUint16},
					{Name: "c2", Offset: 6, Length: 2, Type: netmsg.TypeUint16},
				},
			}
		} else {
			// Type B: different magic + text.
			m = &netmsg.Message{
				Data: append([]byte{0x11, 0x22}, []byte("hello-world")...),
				Fields: []netmsg.Field{
					{Name: "magic", Offset: 0, Length: 2, Type: netmsg.TypeBytes},
					{Name: "txt", Offset: 2, Length: 11, Type: netmsg.TypeChars},
				},
			}
		}
		tr.Messages = append(tr.Messages, m)
	}
	return tr
}

func TestClusterSeparatesFormats(t *testing.T) {
	tr := twoTypeTrace(40)
	res, err := Cluster(context.Background(), tr, segment.GroundTruth{}, Params{})
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if len(res.Types) != 2 {
		t.Fatalf("types = %d, want 2", len(res.Types))
	}
	// Each type must be pure: all members share the first byte.
	for ti, group := range res.Types {
		first := group[0].Data[0]
		for _, m := range group {
			if m.Data[0] != first {
				t.Errorf("type %d mixes formats", ti)
			}
		}
	}
	if res.Epsilon <= 0 {
		t.Errorf("epsilon = %v", res.Epsilon)
	}
}

func TestClusterAccountsForAllMessages(t *testing.T) {
	tr := twoTypeTrace(30)
	res, err := Cluster(context.Background(), tr, segment.GroundTruth{}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Noise)
	for _, g := range res.Types {
		total += len(g)
	}
	if total != len(tr.Messages) {
		t.Errorf("types+noise = %d, want %d", total, len(tr.Messages))
	}
}

func TestClusterOnRealProtocol(t *testing.T) {
	tr, err := protocols.Generate("dns", 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.Deduplicate()
	res, err := Cluster(context.Background(), tr, segment.GroundTruth{}, Params{})
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if len(res.Types) < 2 {
		t.Errorf("DNS should split into at least query/response types, got %d", len(res.Types))
	}
	// Types should be direction-pure to a large degree.
	pure := 0
	total := 0
	for _, g := range res.Types {
		req := 0
		for _, m := range g {
			if m.IsRequest {
				req++
			}
		}
		major := req
		if len(g)-req > major {
			major = len(g) - req
		}
		pure += major
		total += len(g)
	}
	if total == 0 {
		t.Fatal("no clustered messages")
	}
	if share := float64(pure) / float64(total); share < 0.8 {
		t.Errorf("direction purity = %.2f, want ≥ 0.8", share)
	}
}

func TestMessageDissimilarity(t *testing.T) {
	msg := func(data []byte) *netmsg.Message { return &netmsg.Message{Data: data} }
	segsOf := func(m *netmsg.Message, cuts ...int) []netmsg.Segment {
		return segment.FromBoundaries(m, cuts)
	}
	a := msg([]byte{1, 2, 3, 4})
	b := msg([]byte{1, 2, 3, 4})
	d, err := messageDissimilarity(segsOf(a, 2), segsOf(b, 2), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("identical messages dissimilarity = %v, want 0", d)
	}

	c := msg([]byte{250, 251, 252, 253})
	d2, err := messageDissimilarity(segsOf(a, 2), segsOf(c, 2), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= 0.5 {
		t.Errorf("opposite messages dissimilarity = %v, want high", d2)
	}

	// Extra unmatched segments count fully.
	long := msg([]byte{1, 2, 3, 4, 9, 9, 9, 9})
	d3, err := messageDissimilarity(segsOf(a, 2), segsOf(long, 2, 4), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if d3 <= 0 || d3 >= 1 {
		t.Errorf("partial match dissimilarity = %v, want in (0,1)", d3)
	}

	// Empty segment lists.
	if d, _ := messageDissimilarity(nil, nil, 0.3); d != 0 {
		t.Errorf("both empty = %v, want 0", d)
	}
	if d, _ := messageDissimilarity(segsOf(a, 2), nil, 0.3); d != 1 {
		t.Errorf("one empty = %v, want 1", d)
	}
}
