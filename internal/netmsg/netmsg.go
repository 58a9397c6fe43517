// Package netmsg defines the trace data model shared by the whole
// pipeline: protocol messages with optional ground-truth field
// dissection, message segments (field candidates), and traces.
//
// The model mirrors the paper's terminology (Section III-B): a *field*
// is a typed byte range from the true protocol specification (here:
// produced by the trace generators, standing in for Wireshark
// dissectors), while a *segment* is an inferred field candidate.
package netmsg

import (
	"fmt"
	"time"
)

// FieldType is a ground-truth data type label, e.g. "uint16" or
// "timestamp". Pseudo data type clustering never sees these labels; they
// exist only for evaluation.
type FieldType string

// Common ground-truth field types emitted by the trace generators.
const (
	TypeUint8     FieldType = "uint8"
	TypeUint16    FieldType = "uint16"
	TypeUint32    FieldType = "uint32"
	TypeUint64    FieldType = "uint64"
	TypeTimestamp FieldType = "timestamp"
	TypeIPv4      FieldType = "ipv4addr"
	TypeMACAddr   FieldType = "macaddr"
	TypeChars     FieldType = "chars"
	TypeBytes     FieldType = "bytes"
	TypeFlags     FieldType = "flags"
	TypeID        FieldType = "id"
	TypeChecksum  FieldType = "checksum"
	TypeEnum      FieldType = "enum"
	TypePad       FieldType = "pad"
	TypeUnknown   FieldType = "unknown"
)

// Field is one typed byte range in a message, per the true (generated)
// protocol specification.
type Field struct {
	// Name is the field's protocol-level name, e.g. "xid" or "yiaddr".
	Name string
	// Offset is the byte offset of the field within the message.
	Offset int
	// Length is the field length in bytes.
	Length int
	// Type is the ground-truth data type label.
	Type FieldType
}

// End returns the exclusive end offset of the field.
func (f Field) End() int { return f.Offset + f.Length }

// Message is one protocol message (payload only, no encapsulation) plus
// the metadata FieldHunter-style analyses need.
type Message struct {
	// Data is the raw message payload.
	Data []byte
	// Fields is the ground-truth dissection, sorted by offset and tiling
	// Data completely. Nil for truly unknown messages.
	Fields []Field
	// Timestamp is the capture time.
	Timestamp time.Time
	// SrcAddr and DstAddr identify the communicating endpoints
	// ("host:port"); used by FieldHunter heuristics only.
	SrcAddr string
	DstAddr string
	// IsRequest marks client→server messages; used by FieldHunter only.
	IsRequest bool
}

// Len returns the payload length in bytes.
func (m *Message) Len() int { return len(m.Data) }

// ValidateFields checks that the ground-truth fields are sorted,
// non-overlapping, in bounds, and tile the message without gaps.
func (m *Message) ValidateFields() error {
	if m.Fields == nil {
		return nil
	}
	pos := 0
	for i, f := range m.Fields {
		if f.Offset != pos {
			return fmt.Errorf("netmsg: field %d (%s) starts at %d, want %d", i, f.Name, f.Offset, pos)
		}
		if f.Length <= 0 {
			return fmt.Errorf("netmsg: field %d (%s) has non-positive length %d", i, f.Name, f.Length)
		}
		pos = f.End()
	}
	if pos != len(m.Data) {
		return fmt.Errorf("netmsg: fields end at %d, message has %d bytes", pos, len(m.Data))
	}
	return nil
}

// Segment is a field candidate: a byte range within one message.
type Segment struct {
	// Msg is the message the segment belongs to.
	Msg *Message
	// Offset and Length delimit the segment within Msg.Data.
	Offset int
	Length int
}

// Bytes returns the segment's payload. The returned slice aliases the
// message buffer and must not be mutated.
func (s Segment) Bytes() []byte { return s.Msg.Data[s.Offset : s.Offset+s.Length] }

// End returns the exclusive end offset of the segment.
func (s Segment) End() int { return s.Offset + s.Length }

// DominantTrueType returns the ground-truth type with the largest byte
// overlap with this segment, and whether the segment's boundaries match
// that field exactly. TypeUnknown is returned when the message carries
// no dissection.
func (s Segment) DominantTrueType() (FieldType, bool) {
	if s.Msg.Fields == nil {
		return TypeUnknown, false
	}
	overlap := make(map[FieldType]int)
	exact := false
	var best FieldType = TypeUnknown
	bestN := 0
	for _, f := range s.Msg.Fields {
		lo := max(s.Offset, f.Offset)
		hi := min(s.End(), f.End())
		if hi <= lo {
			continue
		}
		overlap[f.Type] += hi - lo
		if overlap[f.Type] > bestN {
			bestN = overlap[f.Type]
			best = f.Type
		}
		if f.Offset == s.Offset && f.End() == s.End() {
			exact = true
		}
	}
	return best, exact
}

// Trace is an ordered collection of messages of one protocol.
type Trace struct {
	// Protocol is a short name such as "ntp" or "awdl".
	Protocol string
	// Messages holds the trace's messages in capture order.
	Messages []*Message
}

// TotalBytes returns the sum of all message payload lengths.
func (t *Trace) TotalBytes() int {
	var n int
	for _, m := range t.Messages {
		n += len(m.Data)
	}
	return n
}

// Deduplicate returns a new trace with duplicate payloads removed,
// keeping the first occurrence (Section III-A: duplicates carry no
// additional information).
func (t *Trace) Deduplicate() *Trace {
	seen := make(map[string]bool, len(t.Messages))
	out := &Trace{Protocol: t.Protocol}
	for _, m := range t.Messages {
		key := string(m.Data)
		if seen[key] {
			continue
		}
		seen[key] = true
		out.Messages = append(out.Messages, m)
	}
	return out
}

// Validate checks the ground truth of every message in the trace.
func (t *Trace) Validate() error {
	for i, m := range t.Messages {
		if err := m.ValidateFields(); err != nil {
			return fmt.Errorf("message %d: %w", i, err)
		}
	}
	return nil
}

// TrueSegments converts every ground-truth field of every message into a
// segment (the "segmentation by dissector" used for Table I).
func (t *Trace) TrueSegments() []Segment {
	var segs []Segment
	for _, m := range t.Messages {
		for _, f := range m.Fields {
			segs = append(segs, Segment{Msg: m, Offset: f.Offset, Length: f.Length})
		}
	}
	return segs
}

// SegmentsEqual reports whether two segments cover the same byte range
// of the same message.
func SegmentsEqual(a, b Segment) bool {
	return a.Msg == b.Msg && a.Offset == b.Offset && a.Length == b.Length
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
