package report

import (
	"context"
	"strings"
	"testing"

	"protoclust/internal/core"
	"protoclust/internal/netmsg"
	"protoclust/internal/protocols"
	"protoclust/internal/segment"
)

func dumpResult(t *testing.T) *core.Result {
	t.Helper()
	tr, err := protocols.Generate("ntp", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := segment.GroundTruth{}.Segment(context.Background(), tr.Deduplicate())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ClusterSegmentsContext(context.Background(), segs, core.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteClusterDumpPlain(t *testing.T) {
	res := dumpResult(t)
	var sb strings.Builder
	if err := WriteClusterDump(&sb, res, 3, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "msg   0") {
		t.Errorf("missing message header:\n%s", out)
	}
	// Plain mode uses [cluster:hex] tags.
	if !strings.Contains(out, "[0:") && !strings.Contains(out, "[1:") {
		t.Errorf("no cluster tags in plain dump:\n%s", out)
	}
	// Exactly 3 messages plus the legend line.
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Errorf("line count = %d, want 4", lines)
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("plain dump contains ANSI escapes")
	}
}

func TestWriteClusterDumpColor(t *testing.T) {
	res := dumpResult(t)
	var sb strings.Builder
	if err := WriteClusterDump(&sb, res, 2, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "\x1b[") {
		t.Error("color dump lacks ANSI escapes")
	}
	if !strings.Contains(out, dumpReset) {
		t.Error("color dump never resets")
	}
}

func TestWriteClusterDumpCoversMessageBytes(t *testing.T) {
	res := dumpResult(t)
	var sb strings.Builder
	if err := WriteClusterDump(&sb, res, 1, false); err != nil {
		t.Fatal(err)
	}
	// The first NTP message has 48 bytes = 96 hex chars; count hex chars
	// outside tags' metadata by stripping brackets and tags.
	line := strings.Split(sb.String(), "\n")[1]
	hexChars := 0
	inTag := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '[':
			inTag = true
		case ':':
			inTag = false
		case ']':
		default:
			if !inTag && (line[i] >= '0' && line[i] <= '9' || line[i] >= 'a' && line[i] <= 'f') {
				hexChars++
			}
		}
	}
	if hexChars < 96 {
		t.Errorf("first message dump carries %d hex chars, want ≥ 96", hexChars)
	}
}

func TestWriteClusterDumpAllMessages(t *testing.T) {
	res := dumpResult(t)
	var sb strings.Builder
	// maxMessages = 0 means all.
	if err := WriteClusterDump(&sb, res, 0, false); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines < 30 {
		t.Errorf("expected all messages, got %d lines", lines)
	}
}

func TestWriteClusterDumpNoiseTag(t *testing.T) {
	// Construct a result with forced noise by clustering inseparable
	// random segments at tiny epsilon.
	m := &netmsg.Message{Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	var segs []netmsg.Segment
	for i := 0; i+2 <= len(m.Data); i += 2 {
		segs = append(segs, netmsg.Segment{Msg: m, Offset: i, Length: 2})
	}
	p := core.DefaultParams()
	p.FixedEpsilon = 1e-9
	res, err := core.ClusterSegmentsContext(context.Background(), segs, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteClusterDump(&sb, res, 0, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "[n:") {
		t.Errorf("noise tag missing:\n%s", sb.String())
	}
}
