package netmsg

import (
	"testing"
	"testing/quick"
)

func msgWithFields(data []byte, fields []Field) *Message {
	return &Message{Data: data, Fields: fields}
}

func TestValidateFieldsOK(t *testing.T) {
	m := msgWithFields([]byte{1, 2, 3, 4}, []Field{
		{Name: "a", Offset: 0, Length: 2, Type: TypeUint16},
		{Name: "b", Offset: 2, Length: 2, Type: TypeUint16},
	})
	if err := m.ValidateFields(); err != nil {
		t.Errorf("ValidateFields: %v", err)
	}
}

func TestValidateFieldsGap(t *testing.T) {
	m := msgWithFields([]byte{1, 2, 3}, []Field{
		{Name: "a", Offset: 0, Length: 1},
		{Name: "b", Offset: 2, Length: 1},
	})
	if err := m.ValidateFields(); err == nil {
		t.Error("gap between fields should fail validation")
	}
}

func TestValidateFieldsShort(t *testing.T) {
	m := msgWithFields([]byte{1, 2, 3}, []Field{
		{Name: "a", Offset: 0, Length: 2},
	})
	if err := m.ValidateFields(); err == nil {
		t.Error("fields not covering message should fail validation")
	}
}

func TestValidateFieldsZeroLength(t *testing.T) {
	m := msgWithFields([]byte{1}, []Field{
		{Name: "a", Offset: 0, Length: 0},
		{Name: "b", Offset: 0, Length: 1},
	})
	if err := m.ValidateFields(); err == nil {
		t.Error("zero-length field should fail validation")
	}
}

func TestValidateFieldsNilOK(t *testing.T) {
	m := &Message{Data: []byte{1, 2}}
	if err := m.ValidateFields(); err != nil {
		t.Errorf("nil fields should validate, got %v", err)
	}
}

func TestSegmentBytes(t *testing.T) {
	m := &Message{Data: []byte{0, 1, 2, 3, 4}}
	s := Segment{Msg: m, Offset: 1, Length: 3}
	got := s.Bytes()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Bytes = %v, want [1 2 3]", got)
	}
	if s.End() != 4 {
		t.Errorf("End = %d, want 4", s.End())
	}
}

func TestDominantTrueType(t *testing.T) {
	m := msgWithFields([]byte{0, 1, 2, 3, 4, 5}, []Field{
		{Name: "ts", Offset: 0, Length: 4, Type: TypeTimestamp},
		{Name: "id", Offset: 4, Length: 2, Type: TypeID},
	})
	tests := []struct {
		name      string
		seg       Segment
		wantType  FieldType
		wantExact bool
	}{
		{"exact", Segment{m, 0, 4}, TypeTimestamp, true},
		{"shifted", Segment{m, 1, 4}, TypeTimestamp, false},
		{"spanning", Segment{m, 2, 4}, TypeTimestamp, false},
		{"mostlyID", Segment{m, 3, 3}, TypeID, false},
		{"exactID", Segment{m, 4, 2}, TypeID, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			typ, exact := tt.seg.DominantTrueType()
			if typ != tt.wantType || exact != tt.wantExact {
				t.Errorf("DominantTrueType = (%v,%v), want (%v,%v)", typ, exact, tt.wantType, tt.wantExact)
			}
		})
	}
}

func TestDominantTrueTypeNoFields(t *testing.T) {
	m := &Message{Data: []byte{1, 2}}
	typ, exact := (Segment{m, 0, 2}).DominantTrueType()
	if typ != TypeUnknown || exact {
		t.Errorf("no-dissection segment = (%v,%v), want (unknown,false)", typ, exact)
	}
}

func TestTraceTotalBytes(t *testing.T) {
	tr := &Trace{Messages: []*Message{
		{Data: make([]byte, 10)},
		{Data: make([]byte, 5)},
	}}
	if got := tr.TotalBytes(); got != 15 {
		t.Errorf("TotalBytes = %d, want 15", got)
	}
}

func TestDeduplicate(t *testing.T) {
	a := &Message{Data: []byte{1, 2}}
	b := &Message{Data: []byte{1, 2}}
	c := &Message{Data: []byte{3}}
	tr := &Trace{Protocol: "x", Messages: []*Message{a, b, c}}
	dd := tr.Deduplicate()
	if len(dd.Messages) != 2 {
		t.Fatalf("deduplicated to %d messages, want 2", len(dd.Messages))
	}
	if dd.Messages[0] != a || dd.Messages[1] != c {
		t.Error("dedup should keep the first occurrence in order")
	}
	if dd.Protocol != "x" {
		t.Error("dedup must preserve the protocol name")
	}
	if len(tr.Messages) != 3 {
		t.Error("dedup must not mutate the original trace")
	}
}

func TestTrueSegments(t *testing.T) {
	m := msgWithFields([]byte{0, 1, 2, 3}, []Field{
		{Name: "a", Offset: 0, Length: 2, Type: TypeUint16},
		{Name: "b", Offset: 2, Length: 2, Type: TypeUint16},
	})
	tr := &Trace{Messages: []*Message{m}}
	segs := tr.TrueSegments()
	if len(segs) != 2 {
		t.Fatalf("TrueSegments = %d, want 2", len(segs))
	}
	if segs[0].Offset != 0 || segs[0].Length != 2 || segs[1].Offset != 2 {
		t.Errorf("unexpected segments: %+v", segs)
	}
}

func TestSegmentsEqual(t *testing.T) {
	m1 := &Message{Data: []byte{1, 2, 3}}
	m2 := &Message{Data: []byte{1, 2, 3}}
	a := Segment{m1, 0, 2}
	b := Segment{m1, 0, 2}
	c := Segment{m2, 0, 2}
	if !SegmentsEqual(a, b) {
		t.Error("identical segments must compare equal")
	}
	if SegmentsEqual(a, c) {
		t.Error("segments of different messages must not be SegmentsEqual")
	}
}

// Property: dedup is idempotent and never grows a trace.
func TestDeduplicateIdempotentProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		tr := &Trace{}
		for _, p := range payloads {
			tr.Messages = append(tr.Messages, &Message{Data: p})
		}
		d1 := tr.Deduplicate()
		d2 := d1.Deduplicate()
		if len(d1.Messages) > len(tr.Messages) {
			return false
		}
		return len(d1.Messages) == len(d2.Messages)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
