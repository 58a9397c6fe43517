package segment

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"protoclust/internal/netmsg"
)

func twoFieldMessage() *netmsg.Message {
	return &netmsg.Message{
		Data: []byte{1, 2, 3, 4},
		Fields: []netmsg.Field{
			{Name: "a", Offset: 0, Length: 2, Type: netmsg.TypeUint16},
			{Name: "b", Offset: 2, Length: 2, Type: netmsg.TypeUint16},
		},
	}
}

func TestGroundTruthSegment(t *testing.T) {
	tr := &netmsg.Trace{Messages: []*netmsg.Message{twoFieldMessage()}}
	segs, err := GroundTruth{}.Segment(context.Background(), tr)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if err := Validate(tr, segs); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if (GroundTruth{}).Name() != "truth" {
		t.Error("wrong name")
	}
}

func TestGroundTruthRequiresDissection(t *testing.T) {
	tr := &netmsg.Trace{Messages: []*netmsg.Message{{Data: []byte{1}}}}
	if _, err := (GroundTruth{}).Segment(context.Background(), tr); err == nil {
		t.Error("missing dissection should error")
	}
}

func TestValidateDetectsGap(t *testing.T) {
	m := &netmsg.Message{Data: []byte{1, 2, 3}}
	tr := &netmsg.Trace{Messages: []*netmsg.Message{m}}
	segs := []netmsg.Segment{
		{Msg: m, Offset: 0, Length: 1},
		{Msg: m, Offset: 2, Length: 1},
	}
	if err := Validate(tr, segs); err == nil {
		t.Error("gap should fail validation")
	}
}

func TestValidateDetectsShortCoverage(t *testing.T) {
	m := &netmsg.Message{Data: []byte{1, 2, 3}}
	tr := &netmsg.Trace{Messages: []*netmsg.Message{m}}
	segs := []netmsg.Segment{{Msg: m, Offset: 0, Length: 2}}
	if err := Validate(tr, segs); err == nil {
		t.Error("partial coverage should fail validation")
	}
}

func TestFromBoundaries(t *testing.T) {
	m := &netmsg.Message{Data: []byte{0, 1, 2, 3, 4}}
	segs := FromBoundaries(m, []int{2, 4})
	if len(segs) != 3 {
		t.Fatalf("segments = %d, want 3", len(segs))
	}
	wantLens := []int{2, 2, 1}
	for i, s := range segs {
		if s.Length != wantLens[i] {
			t.Errorf("segment %d length = %d, want %d", i, s.Length, wantLens[i])
		}
	}
}

func TestFromBoundariesIgnoresBad(t *testing.T) {
	m := &netmsg.Message{Data: []byte{0, 1, 2}}
	segs := FromBoundaries(m, []int{0, -1, 3, 99, 1, 1})
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2 (only boundary 1 valid)", len(segs))
	}
}

func TestFromBoundariesEmptyMessage(t *testing.T) {
	m := &netmsg.Message{Data: nil}
	if segs := FromBoundaries(m, nil); segs != nil {
		t.Errorf("empty message segments = %v, want nil", segs)
	}
}

func TestFromBoundariesNoBoundaries(t *testing.T) {
	m := &netmsg.Message{Data: []byte{9, 9}}
	segs := FromBoundaries(m, nil)
	if len(segs) != 1 || segs[0].Length != 2 {
		t.Errorf("segments = %v, want one full-message segment", segs)
	}
}

// Property: FromBoundaries always tiles the message, for arbitrary
// boundary garbage.
func TestFromBoundariesTilesProperty(t *testing.T) {
	f := func(data []byte, rawBounds []int) bool {
		if len(data) == 0 {
			return true
		}
		m := &netmsg.Message{Data: data}
		segs := FromBoundaries(m, rawBounds)
		tr := &netmsg.Trace{Messages: []*netmsg.Message{m}}
		return Validate(tr, segs) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ctxSegmenter records the context Run hands it.
type ctxSegmenter struct{ got context.Context }

func (c *ctxSegmenter) Name() string { return "ctx" }
func (c *ctxSegmenter) Segment(ctx context.Context, tr *netmsg.Trace) ([]netmsg.Segment, error) {
	c.got = ctx
	return nil, nil
}

// TestRunPrefersContextSegmenter checks that Run hands the caller's own
// context to the segmenter's ctx-first Segment, not a replacement.
func TestRunPrefersContextSegmenter(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	cs := &ctxSegmenter{}
	if _, err := Run(ctx, cs, &netmsg.Trace{}); err != nil {
		t.Fatal(err)
	}
	if cs.got != ctx {
		t.Error("Run did not pass the caller's context through")
	}
}

// TestRunCanceledBeforePlainSegmenter checks the one-pass ground-truth
// segmenter: a cancelled ctx fails it with context.Canceled before the
// trace is read, so the missing dissection is never reported.
func TestRunCanceledBeforePlainSegmenter(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := &netmsg.Trace{Messages: []*netmsg.Message{{Data: []byte{1, 2}}}}
	segs, err := Run(ctx, GroundTruth{}, tr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if segs != nil {
		t.Errorf("segments = %v, want none", segs)
	}
}
