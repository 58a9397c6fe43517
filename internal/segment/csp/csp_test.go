package csp

import (
	"context"
	"errors"
	"testing"

	"protoclust/internal/netmsg"
	"protoclust/internal/protocols/ntp"
	"protoclust/internal/segment"
)

// repeatedPatternTrace builds messages that all contain the marker
// pattern 0xDE 0xAD 0xBE 0xEF surrounded by per-message random-ish
// bytes.
func repeatedPatternTrace(n int) *netmsg.Trace {
	tr := &netmsg.Trace{}
	for i := 0; i < n; i++ {
		data := []byte{
			byte(i * 37), byte(i*53 + 1), byte(i*11 + 7),
			0xde, 0xad, 0xbe, 0xef,
			byte(i * 91), byte(i*29 + 3),
		}
		tr.Messages = append(tr.Messages, &netmsg.Message{Data: data})
	}
	return tr
}

func TestName(t *testing.T) {
	if (&Segmenter{}).Name() != "csp" {
		t.Error("wrong name")
	}
}

func TestFrequentPatternBecomesSegment(t *testing.T) {
	tr := repeatedPatternTrace(60)
	s := &Segmenter{MinCount: 30}
	segs, err := s.Segment(context.Background(), tr)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	if err := segment.Validate(tr, segs); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Every message must contain a segment exactly covering the marker.
	markers := 0
	for _, sg := range segs {
		if sg.Offset == 3 && sg.Length == 4 {
			markers++
		}
	}
	if markers != 60 {
		t.Errorf("marker segment found in %d of 60 messages", markers)
	}
}

func TestMinePatternsAprioriExtension(t *testing.T) {
	tr := repeatedPatternTrace(60)
	frequent, err := minePatterns(context.Background(), tr, 16, 30, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\xde\xad", "\xad\xbe", "\xde\xad\xbe", "\xde\xad\xbe\xef"} {
		if !frequent[want] {
			t.Errorf("pattern %x not mined", want)
		}
	}
	if frequent[string([]byte{0xbe, 0xef, 0x00})] {
		t.Error("infrequent extension wrongly mined")
	}
}

func TestBudgetExceeded(t *testing.T) {
	tr := repeatedPatternTrace(60)
	s := &Segmenter{MinCount: 30, Budget: 2}
	if _, err := s.Segment(context.Background(), tr); !errors.Is(err, segment.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestPatternCount(t *testing.T) {
	tr := repeatedPatternTrace(60)
	n, err := PatternCount(context.Background(), tr, 16, 30)
	if err != nil {
		t.Fatal(err)
	}
	// At least the marker's three 2-grams, two 3-grams, one 4-gram.
	if n < 6 {
		t.Errorf("PatternCount = %d, want ≥ 6", n)
	}
}

func TestNoFrequentPatterns(t *testing.T) {
	// All-distinct content below the threshold: every message becomes
	// one dynamic segment.
	tr := &netmsg.Trace{}
	for i := 0; i < 10; i++ {
		tr.Messages = append(tr.Messages, &netmsg.Message{
			Data: []byte{byte(i), byte(i * 3), byte(i * 7), byte(i * 11)},
		})
	}
	s := &Segmenter{MinCount: 9}
	segs, err := s.Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 10 {
		t.Errorf("segments = %d, want 10 single-segment messages", len(segs))
	}
	for _, sg := range segs {
		if sg.Length != 4 {
			t.Errorf("segment length = %d, want full message", sg.Length)
		}
	}
}

func TestSegmentTilesNTP(t *testing.T) {
	tr, err := ntp.Generate(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := (&Segmenter{}).Segment(context.Background(), tr)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	if err := segment.Validate(tr, segs); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGreedyLongestMatch(t *testing.T) {
	// When both a 2-gram and its 3-gram extension are frequent, the
	// longest match wins.
	tr := &netmsg.Trace{}
	for i := 0; i < 40; i++ {
		tr.Messages = append(tr.Messages, &netmsg.Message{
			Data: []byte{byte(i), 0x01, 0x02, 0x03, byte(i * 5)},
		})
	}
	s := &Segmenter{MinCount: 20}
	segs, err := s.Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, sg := range segs {
		if sg.Offset == 1 && sg.Length == 3 {
			full++
		}
	}
	if full != 40 {
		t.Errorf("full 3-byte match found in %d of 40 messages", full)
	}
}

func TestEmptyTrace(t *testing.T) {
	segs, err := (&Segmenter{}).Segment(context.Background(), &netmsg.Trace{})
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	if segs != nil {
		t.Errorf("segments = %v, want nil", segs)
	}
}

func TestDeterministic(t *testing.T) {
	tr := repeatedPatternTrace(50)
	s := &Segmenter{MinCount: 25}
	a, err := s.Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("segment counts differ")
	}
	for i := range a {
		if !netmsg.SegmentsEqual(a[i], b[i]) {
			t.Fatalf("segment %d differs", i)
		}
	}
}

func TestSegmentContextCanceled(t *testing.T) {
	var msgs []*netmsg.Message
	for i := 0; i < 40; i++ {
		msgs = append(msgs, &netmsg.Message{Data: []byte{1, 2, 3, 4, byte(i), 6, 7, 8}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Segmenter{}
	if _, err := s.Segment(ctx, &netmsg.Trace{Messages: msgs}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
