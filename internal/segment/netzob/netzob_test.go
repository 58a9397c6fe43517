package netzob

import (
	"context"
	"errors"
	"testing"

	"protoclust/internal/netmsg"
	"protoclust/internal/protocols/ntp"
	"protoclust/internal/segment"
)

func TestName(t *testing.T) {
	if (&Segmenter{}).Name() != "netzob" {
		t.Error("wrong name")
	}
}

func TestEmptyTrace(t *testing.T) {
	segs, err := (&Segmenter{}).Segment(context.Background(), &netmsg.Trace{})
	if err != nil || segs != nil {
		t.Errorf("empty trace: segs=%v err=%v", segs, err)
	}
}

func TestSegmentTilesMessages(t *testing.T) {
	tr, err := ntp.Generate(40, 1)
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

func TestStaticDynamicBoundary(t *testing.T) {
	// Messages share a constant 4-byte prefix followed by 4 varying
	// bytes: alignment must place a boundary at the transition.
	tr := &netmsg.Trace{}
	for i := 0; i < 20; i++ {
		data := []byte{0xAA, 0xBB, 0xCC, 0xDD, byte(i * 13), byte(i * 7), byte(i * 29), byte(i)}
		tr.Messages = append(tr.Messages, &netmsg.Message{Data: data})
	}
	segs, err := (&Segmenter{}).Segment(context.Background(), tr)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	boundaryAt4 := 0
	for _, sg := range segs {
		if sg.Offset == 4 {
			boundaryAt4++
		}
	}
	if boundaryAt4 < 15 {
		t.Errorf("boundary at offset 4 found in %d of 20 messages", boundaryAt4)
	}
}

func TestIdenticalMessagesSingleSegment(t *testing.T) {
	tr := &netmsg.Trace{}
	for i := 0; i < 10; i++ {
		tr.Messages = append(tr.Messages, &netmsg.Message{Data: []byte{1, 2, 3, 4, 5}})
	}
	segs, err := (&Segmenter{}).Segment(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// All columns static → no boundaries → one segment per message.
	if len(segs) != 10 {
		t.Errorf("segments = %d, want 10 (one per message)", len(segs))
	}
}

func TestVariableLengthAlignment(t *testing.T) {
	// Same constant prefix, variable-length middle, constant suffix:
	// alignment with gaps must still tile each message.
	tr := &netmsg.Trace{}
	for i := 0; i < 15; i++ {
		data := []byte{0x55, 0x66}
		for j := 0; j <= i%4; j++ {
			data = append(data, byte(100+i*j))
		}
		data = append(data, 0x77, 0x88)
		tr.Messages = append(tr.Messages, &netmsg.Message{Data: data})
	}
	segs, err := (&Segmenter{}).Segment(context.Background(), tr)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	if err := segment.Validate(tr, segs); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBudgetPreflight(t *testing.T) {
	tr := &netmsg.Trace{}
	for i := 0; i < 100; i++ {
		data := make([]byte, 1000)
		for j := range data {
			data[j] = byte(i * j)
		}
		tr.Messages = append(tr.Messages, &netmsg.Message{Data: data})
	}
	s := &Segmenter{Budget: 1_000_000}
	if _, err := s.Segment(context.Background(), tr); !errors.Is(err, segment.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestBudgetSpentMidway(t *testing.T) {
	// Pre-flight passes (n·maxLen² just under budget) but consensus
	// growth can push actual spend over; either way the result must be
	// valid or a budget error — never a panic or silent truncation.
	tr := &netmsg.Trace{}
	for i := 0; i < 30; i++ {
		data := make([]byte, 40)
		for j := range data {
			data[j] = byte((i*31 + j*17) % 251)
		}
		tr.Messages = append(tr.Messages, &netmsg.Message{Data: data})
	}
	s := &Segmenter{Budget: 30 * 40 * 40}
	segs, err := s.Segment(context.Background(), tr)
	if err != nil {
		if !errors.Is(err, segment.ErrBudgetExceeded) {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if err := segment.Validate(tr, segs); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAlignPairwise(t *testing.T) {
	consensus := []int16{1, 2, 3, 4}
	var a aligner
	rowA, rowB := a.align(consensus, []byte{1, 2, 9, 3, 4})
	if len(rowA) != len(rowB) {
		t.Fatalf("row lengths differ: %d vs %d", len(rowA), len(rowB))
	}
	// The message is one byte longer → exactly one gap in rowA.
	gaps := 0
	for _, v := range rowA {
		if v < 0 {
			gaps++
		}
	}
	if gaps != 1 {
		t.Errorf("gaps in consensus row = %d, want 1", gaps)
	}
	// rowB must contain all message bytes in order.
	var got []byte
	for _, v := range rowB {
		if v >= 0 {
			got = append(got, byte(v))
		}
	}
	if string(got) != string([]byte{1, 2, 9, 3, 4}) {
		t.Errorf("rowB bytes = %v", got)
	}
}

func TestExpandAllNoGapFastPath(t *testing.T) {
	aligned := [][]int16{{1, 2}, {3, 4}}
	out := expandAll(aligned, []int16{0, 0})
	if &out[0][0] != &aligned[0][0] {
		t.Error("no-gap expansion should return the input unchanged")
	}
}

func TestExpandAllInsertsGaps(t *testing.T) {
	aligned := [][]int16{{1, 2}, {3, 4}}
	out := expandAll(aligned, []int16{0, -1, 0})
	for r := range out {
		if len(out[r]) != 3 {
			t.Fatalf("row %d length = %d, want 3", r, len(out[r]))
		}
		if out[r][1] != -1 {
			t.Errorf("row %d gap not inserted: %v", r, out[r])
		}
	}
	if out[0][0] != 1 || out[0][2] != 2 {
		t.Errorf("row 0 content wrong: %v", out[0])
	}
}

func TestColumnStatistics(t *testing.T) {
	// A column with no bytes yet (all gaps) reads as gap.
	c := newColumn()
	if c.modal != -1 || c.nonGap != 0 {
		t.Fatalf("empty column: modal %d nonGap %d, want -1 and 0", c.modal, c.nonGap)
	}
	// Equal counts go to the smaller value, whichever arrived first.
	for _, v := range []byte{9, 7, 9, 7} {
		c.add(v)
	}
	if c.modal != 7 || c.modalN != 2 || c.nonGap != 4 {
		t.Errorf("tie: modal %d×%d of %d, want 7×2 of 4", c.modal, c.modalN, c.nonGap)
	}
	c.add(9)
	if c.modal != 9 || c.modalN != 3 {
		t.Errorf("lead: modal %d×%d, want 9×3", c.modal, c.modalN)
	}
}

func TestStarAlignInsertsGapColumn(t *testing.T) {
	// The third message has a byte the first two lack, so alignment
	// inserts a gap column mid-trace: it holds only that byte, and the
	// columns around it keep their counts.
	msgs := []*netmsg.Message{
		{Data: []byte{1, 2, 3, 4}},
		{Data: []byte{1, 2, 3, 4}},
		{Data: []byte{1, 2, 200, 3, 4}},
		{Data: []byte{1, 2, 3, 4}},
	}
	aligned, cols, spent, err := starAlign(context.Background(), msgs, DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5*5 + 5*6 + 6*5); spent != want {
		t.Errorf("spent = %d cells, want %d", spent, want)
	}
	if len(cols) != 5 || len(aligned[0]) != 5 {
		t.Fatalf("%d columns, rows of %d; want 5 and 5", len(cols), len(aligned[0]))
	}
	gap := cols[2]
	if gap.nonGap != 1 || gap.modal != 200 || gap.modalN != 1 || gap.counts[200] != 1 {
		t.Errorf("inserted column: modal %d×%d of %d, want 200×1 of 1", gap.modal, gap.modalN, gap.nonGap)
	}
	for c, want := range []int16{1, 2, -1, 3, 4} {
		if c == 2 {
			continue
		}
		if col := cols[c]; col.modal != want || col.modalN != 4 || col.nonGap != 4 {
			t.Errorf("column %d: modal %d×%d of %d, want %d×4 of 4", c, col.modal, col.modalN, col.nonGap, want)
		}
	}
	if aligned[0][2] != -1 || aligned[1][2] != -1 || aligned[3][2] != -1 {
		t.Errorf("gap column not gap in the other rows: %v", aligned)
	}
}

func TestSegmentContextCanceled(t *testing.T) {
	var msgs []*netmsg.Message
	for i := 0; i < 8; i++ {
		msgs = append(msgs, &netmsg.Message{Data: []byte{1, 2, 3, byte(i), 5, 6}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Segmenter{}
	if _, err := s.Segment(ctx, &netmsg.Trace{Messages: msgs}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
