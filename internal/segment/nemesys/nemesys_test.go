package nemesys

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"protoclust/internal/netmsg"
	"protoclust/internal/protocols/ntp"
	"protoclust/internal/segment"
)

func TestName(t *testing.T) {
	if (&Segmenter{}).Name() != "nemesys" {
		t.Error("wrong name")
	}
}

func TestSegmentTilesMessages(t *testing.T) {
	tr, err := ntp.Generate(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &Segmenter{}
	segs, err := s.Segment(context.Background(), tr)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	if err := segment.Validate(tr, segs); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSegmentDeterministic(t *testing.T) {
	tr, err := ntp.Generate(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &Segmenter{}
	a, err := s.Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("segment counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !netmsg.SegmentsEqual(a[i], b[i]) {
			t.Fatalf("segment %d differs between runs", i)
		}
	}
}

func TestShortMessages(t *testing.T) {
	tr := &netmsg.Trace{Messages: []*netmsg.Message{
		{Data: []byte{}},
		{Data: []byte{1}},
		{Data: []byte{1, 2}},
	}}
	s := &Segmenter{}
	segs, err := s.Segment(context.Background(), tr)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	// Empty message yields nothing, the others one segment each.
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	for _, sg := range segs {
		if sg.Offset != 0 || sg.Length != len(sg.Msg.Data) {
			t.Errorf("short message not a single segment: %+v", sg)
		}
	}
}

func TestBoundaryAtContentTransition(t *testing.T) {
	// A message whose first half is 0x00 and second half 0xff has the
	// sharpest possible bit-congruence drop at the transition; NEMESYS
	// should place a boundary in its vicinity.
	data := make([]byte, 16)
	for i := 8; i < 16; i++ {
		data[i] = 0xff
	}
	m := &netmsg.Message{Data: data}
	tr := &netmsg.Trace{Messages: []*netmsg.Message{m}}
	segs, err := (&Segmenter{}).Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("no boundary found at sharp content transition: %d segments", len(segs))
	}
	found := false
	for _, sg := range segs[1:] {
		if sg.Offset >= 6 && sg.Offset <= 10 {
			found = true
		}
	}
	if !found {
		offsets := make([]int, len(segs))
		for i, sg := range segs {
			offsets[i] = sg.Offset
		}
		t.Errorf("no boundary near offset 8; got offsets %v", offsets)
	}
}

func TestCharRunMerging(t *testing.T) {
	// A binary prefix followed by a long printable string: the string
	// must come out as one (or very few) segments despite internal
	// bit-congruence variation.
	data := append([]byte{0x01, 0x80, 0x03, 0xfc}, []byte("workstation-17.local")...)
	m := &netmsg.Message{Data: data}
	tr := &netmsg.Trace{Messages: []*netmsg.Message{m}}
	segs, err := (&Segmenter{}).Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Find the segment containing offset 10 (middle of the string).
	var within netmsg.Segment
	for _, sg := range segs {
		if sg.Offset <= 10 && sg.End() > 10 {
			within = sg
		}
	}
	if within.Msg == nil {
		t.Fatal("no segment covers the string region")
	}
	if within.Length < len("workstation-17.local") {
		t.Errorf("char run split: covering segment has length %d, want ≥ %d",
			within.Length, len("workstation-17.local"))
	}
}

func TestHighEntropySplitting(t *testing.T) {
	// Figure 3: random content (e.g. timestamp fractions, signatures)
	// gets split at unstable positions. We just assert NEMESYS produces
	// multiple segments on a 48-byte NTP message — i.e. it is not
	// degenerate.
	tr, err := ntp.Generate(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := (&Segmenter{}).Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	perMsg := make(map[*netmsg.Message]int)
	for _, sg := range segs {
		perMsg[sg.Msg]++
	}
	for m, n := range perMsg {
		if n < 3 {
			t.Errorf("message of %d bytes produced only %d segments", len(m.Data), n)
		}
	}
}

func TestGaussianSmooth(t *testing.T) {
	xs := []float64{0, 0, 1, 0, 0}
	out := gaussianSmooth(xs, 0.6)
	if len(out) != len(xs) {
		t.Fatalf("length changed: %d", len(out))
	}
	if out[2] <= out[1] || out[2] <= out[3] {
		t.Errorf("peak not preserved: %v", out)
	}
	if out[2] >= 1 {
		t.Errorf("peak not smoothed down: %v", out[2])
	}
	var sumIn, sumOut float64
	for i := range xs {
		sumIn += xs[i]
		sumOut += out[i]
	}
	if math.Abs(sumIn-sumOut) > 0.3 {
		t.Errorf("mass not roughly preserved: in=%v out=%v", sumIn, sumOut)
	}
}

func TestBitCongruence(t *testing.T) {
	bc := bitCongruence([]byte{0x00, 0x00, 0xff, 0xff})
	want := []float64{1, 0, 1}
	for i := range want {
		if bc[i] != want[i] {
			t.Errorf("bc[%d] = %v, want %v", i, bc[i], want[i])
		}
	}
}

func TestIsPrintable(t *testing.T) {
	if !isPrintable('a') || !isPrintable(' ') || !isPrintable('~') {
		t.Error("printable chars misclassified")
	}
	if isPrintable(0x1f) || isPrintable(0x7f) || isPrintable(0x00) {
		t.Error("non-printable chars misclassified")
	}
}

// Property: segmentation always tiles arbitrary messages.
func TestSegmentTilesProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		tr := &netmsg.Trace{}
		for _, p := range payloads {
			tr.Messages = append(tr.Messages, &netmsg.Message{Data: p})
		}
		segs, err := (&Segmenter{}).Segment(context.Background(), tr)
		if err != nil {
			return false
		}
		return segment.Validate(tr, segs) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSegmentContextCanceled(t *testing.T) {
	tr := &netmsg.Trace{Messages: []*netmsg.Message{
		{Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Data: []byte("hello world padding")},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Segmenter{}
	if _, err := s.Segment(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSegmentContextMatchesSegment checks that a live, cancellable ctx
// segments exactly as a background one: the per-message checkpoints
// do not perturb the result.
func TestSegmentContextMatchesSegment(t *testing.T) {
	tr := &netmsg.Trace{Messages: []*netmsg.Message{
		{Data: []byte{0, 0, 1, 2, 3, 0xff, 0xfe, 'a', 'b', 'c', 'd', 'e', 1}},
	}}
	s := &Segmenter{}
	want, err := s.Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := s.Segment(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("segment count %d != %d", len(got), len(want))
	}
	for i := range want {
		if !netmsg.SegmentsEqual(want[i], got[i]) {
			t.Fatalf("segment %d differs", i)
		}
	}
}

// countdownCtx is a context whose Err flips to Canceled after the first
// n polls — a deterministic probe for how many work units a segmenter
// processes after cancellation.
type countdownCtx struct {
	context.Context
	polls atomic.Int64
	n     int64
}

func (c *countdownCtx) Err() error {
	if c.polls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// The per-message checkpoint bounds post-cancel work to one message:
// once Err reports cancellation, at most the in-flight message is
// finished and no further message is segmented.
func TestSegmentContextBoundedWorkAfterCancel(t *testing.T) {
	const total, allowed = 100, 5
	var msgs []*netmsg.Message
	for i := 0; i < total; i++ {
		msgs = append(msgs, &netmsg.Message{Data: []byte{1, 2, 3, byte(i), 5, 6, 7, 8}})
	}
	ctx := &countdownCtx{Context: context.Background(), n: allowed}
	s := &Segmenter{}
	_, err := s.Segment(ctx, &netmsg.Trace{Messages: msgs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One poll per message before segmenting it: the failing poll is
	// allowed+1, so exactly `allowed` messages were processed.
	if got := ctx.polls.Load(); got != allowed+1 {
		t.Errorf("segmenter polled ctx %d times, want %d (bounded abort)", got, allowed+1)
	}
}
