package semantics

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"protoclust/internal/core"
	"protoclust/internal/netmsg"
	"protoclust/internal/protocols"
	"protoclust/internal/segment"
)

// clusterOf builds a synthetic cluster whose i-th segment value is
// produced by value(i), attached to a message built by msg(i).
func clusterOf(n int, value func(i int) []byte, msg func(i int, payload []byte) *netmsg.Message) *core.Cluster {
	c := &core.Cluster{ID: 1}
	for i := 0; i < n; i++ {
		v := value(i)
		m := msg(i, v)
		c.Segments = append(c.Segments, netmsg.Segment{Msg: m, Offset: 0, Length: len(v)})
	}
	return c
}

func plainMsg(i int, payload []byte) *netmsg.Message {
	return &netmsg.Message{
		Data:      payload,
		Timestamp: time.Unix(int64(1000+i), 0),
		SrcAddr:   "10.0.0.1:1",
		DstAddr:   "10.0.0.2:2",
	}
}

func TestConstantRule(t *testing.T) {
	c := clusterOf(10, func(int) []byte { return []byte{0x63, 0x82, 0x53, 0x63} }, plainMsg)
	d := Deduce(c)
	if d.Label != LabelConstant {
		t.Errorf("label = %v, want constant", d.Label)
	}
	if d.Confidence != 1 {
		t.Errorf("confidence = %v", d.Confidence)
	}
}

func TestLengthRule(t *testing.T) {
	c := clusterOf(20, func(i int) []byte {
		l := 10 + (i%5)*4
		return []byte{0, byte(l)}
	}, func(i int, payload []byte) *netmsg.Message {
		l := 10 + (i%5)*4
		data := make([]byte, l)
		copy(data, payload)
		m := plainMsg(i, data)
		return m
	})
	d := Deduce(c)
	if d.Label != LabelLength {
		t.Errorf("label = %v, want length-field (detail %q)", d.Label, d.Detail)
	}
	if d.Confidence < minCorrelation {
		t.Errorf("confidence = %v", d.Confidence)
	}
}

func TestTimestampRule(t *testing.T) {
	c := clusterOf(20, func(i int) []byte {
		// Seconds counter mirroring capture time plus jitter in low byte.
		v := uint32(50000 + i*3)
		return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v) | byte(i%2)}
	}, func(i int, payload []byte) *netmsg.Message {
		m := plainMsg(i, payload)
		m.Timestamp = time.Unix(int64(50000+i*3), 0)
		return m
	})
	d := Deduce(c)
	if d.Label != LabelTimestamp {
		t.Errorf("label = %v, want timestamp (detail %q)", d.Label, d.Detail)
	}
}

// TestTimestampRuleRejectsEpochZeroTimes is the regression test for the
// absent-capture-time guard: traces without IP encapsulation (AWDL/AU
// style) surface re-stamped capture times at or around epoch zero —
// time.Unix(0, n) is NOT time.Time's zero value, so the IsZero guard
// alone does not catch it. A column of such pseudo-times must not
// correlate into a timestamp label even when the values track the
// nanosecond remainders perfectly.
func TestTimestampRuleRejectsEpochZeroTimes(t *testing.T) {
	build := func(stamp func(i int) time.Time) *core.Cluster {
		return clusterOf(20, func(i int) []byte {
			v := uint32(i * 1000)
			return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
		}, func(i int, payload []byte) *netmsg.Message {
			m := plainMsg(i, payload)
			m.Timestamp = stamp(i)
			return m
		})
	}
	epoch := build(func(i int) time.Time { return time.Unix(0, int64(i*1000)) })
	if _, _, _, ok := timestampRule(epoch); ok {
		t.Error("timestampRule fired on epoch-zero capture times")
	}
	if d := Deduce(epoch); d.Label == LabelTimestamp {
		t.Errorf("Deduce labeled epoch-zero times as timestamp (detail %q)", d.Detail)
	}
	preEpoch := build(func(i int) time.Time { return time.Unix(int64(-1000+i), 0) })
	if _, _, _, ok := timestampRule(preEpoch); ok {
		t.Error("timestampRule fired on pre-epoch capture times")
	}
	// Sanity: the same value column with genuine capture times still
	// deduces a timestamp.
	genuine := build(func(i int) time.Time { return time.Unix(int64(50000+i*1000), 0) })
	if _, _, _, ok := timestampRule(genuine); !ok {
		t.Error("timestampRule stopped firing on genuine capture times")
	}
}

func TestCounterRule(t *testing.T) {
	c := clusterOf(20, func(i int) []byte {
		return []byte{0, byte(i * 2)}
	}, func(i int, payload []byte) *netmsg.Message {
		m := plainMsg(i, payload)
		// Same message length so the length rule cannot fire; timestamps
		// increase, but the values repeat per pair so timestamp
		// correlation is dampened below a counter's.
		return m
	})
	d := Deduce(c)
	// Counter values correlate with time too; either deduction is
	// semantically right, but monotone counters must not be "unknown".
	if d.Label != LabelCounter && d.Label != LabelTimestamp {
		t.Errorf("label = %v, want counter or timestamp", d.Label)
	}
}

func TestCounterRuleNonMonotone(t *testing.T) {
	c := clusterOf(20, func(i int) []byte {
		return []byte{byte(i * 37), byte(i * 91)} // scrambled
	}, plainMsg)
	d := Deduce(c)
	if d.Label == LabelCounter {
		t.Error("scrambled values deduced as counter")
	}
}

func TestHostIDRule(t *testing.T) {
	c := clusterOf(12, func(i int) []byte {
		return []byte{0xAA, byte(i % 4)} // one value per host
	}, func(i int, payload []byte) *netmsg.Message {
		m := plainMsg(i, payload)
		m.SrcAddr = fmt.Sprintf("10.0.0.%d:5", i%4)
		// Constant rule must not fire; host-id requires ≥3 hosts.
		return m
	})
	d := Deduce(c)
	if d.Label != LabelHostID {
		t.Errorf("label = %v, want host-id (detail %q)", d.Label, d.Detail)
	}
}

func TestCharsRule(t *testing.T) {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	c := clusterOf(len(words), func(i int) []byte { return []byte(words[i]) }, plainMsg)
	d := Deduce(c)
	if d.Label != LabelChars {
		t.Errorf("label = %v, want char-sequence", d.Label)
	}
}

func TestEnumRule(t *testing.T) {
	c := clusterOf(24, func(i int) []byte {
		return []byte{0x10, byte(1 + i%3)} // three values, eight times each
	}, plainMsg)
	d := Deduce(c)
	if d.Label != LabelEnum {
		t.Errorf("label = %v, want enumeration (detail %q)", d.Label, d.Detail)
	}
}

func TestUnknownForRandom(t *testing.T) {
	c := clusterOf(20, func(i int) []byte {
		return []byte{byte(i * 57), byte(i*113 + 7), byte(i * 31), byte(i*201 + 3)}
	}, func(i int, payload []byte) *netmsg.Message {
		m := plainMsg(i, payload)
		m.SrcAddr = fmt.Sprintf("10.0.0.%d:5", i) // unique host per segment
		return m
	})
	// Unique host per value makes host-id trivially bijective; break it
	// by reusing hosts with different values.
	c.Segments[0].Msg.SrcAddr = c.Segments[1].Msg.SrcAddr
	d := Deduce(c)
	if d.Label == LabelConstant || d.Label == LabelEnum || d.Label == LabelLength {
		t.Errorf("random cluster mislabeled as %v", d.Label)
	}
}

func TestEmptyCluster(t *testing.T) {
	d := Deduce(&core.Cluster{ID: 3})
	if d.Label != LabelUnknown {
		t.Errorf("empty cluster label = %v, want unknown", d.Label)
	}
}

func TestDeduceAllOnRealPipeline(t *testing.T) {
	tr, err := protocols.Generate("ntp", 200, 1)
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
	ds := DeduceAll(res)
	if len(ds) != len(res.Clusters) {
		t.Fatalf("deductions = %d, want %d", len(ds), len(res.Clusters))
	}
	// The NTP timestamp cluster must be recognized: its era seconds
	// correlate with capture time. Find the biggest cluster and check.
	biggest := 0
	for i, c := range res.Clusters {
		if len(c.Segments) > len(res.Clusters[biggest].Segments) {
			biggest = i
		}
	}
	if got := ds[biggest].Label; got != LabelTimestamp && got != LabelCounter {
		t.Errorf("dominant NTP cluster deduced as %v (detail %q), want timestamp/counter",
			got, ds[biggest].Detail)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3}
	if r := pearson(xs, []float64{10, 20, 30}); r < 0.999 {
		t.Errorf("perfect correlation = %v", r)
	}
	if r := pearson(xs, []float64{5, 5, 5}); r != 0 {
		t.Errorf("constant ys correlation = %v", r)
	}
	if r := pearson([]float64{1}, []float64{2}); r != 0 {
		t.Errorf("single sample correlation = %v", r)
	}
}

func TestRandomRule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := clusterOf(40, func(i int) []byte {
		v := make([]byte, 8)
		rng.Read(v)
		return v
	}, func(i int, payload []byte) *netmsg.Message {
		m := plainMsg(i, payload)
		m.SrcAddr = fmt.Sprintf("10.0.0.%d:1", i%7) // break host-id bijection
		return m
	})
	d := Deduce(c)
	if d.Label != LabelRandom {
		t.Errorf("label = %v (detail %q), want checksum-or-random", d.Label, d.Detail)
	}
	if d.Confidence < 0.8 {
		t.Errorf("confidence = %v, want high for uniform bytes", d.Confidence)
	}
}

func TestRandomRuleRejectsLowEntropy(t *testing.T) {
	c := clusterOf(40, func(i int) []byte {
		// Distinct but low-entropy values (only two byte symbols).
		return []byte{0, 0, 0, 0, 0, 0, byte(i / 2 % 2), byte(i)%2 | byte(i/4)<<1}
	}, plainMsg)
	d := Deduce(c)
	if d.Label == LabelRandom {
		t.Error("low-entropy values misclassified as random")
	}
}

func TestRandomRuleRejectsVariableWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := clusterOf(20, func(i int) []byte {
		v := make([]byte, 6+i%3)
		rng.Read(v)
		return v
	}, plainMsg)
	d := Deduce(c)
	if d.Label == LabelRandom {
		t.Error("variable-width values misclassified as checksum")
	}
}

func TestCharsRuleRejectsSmallIntegers(t *testing.T) {
	// 16-bit values like 0x0064 are half zero bytes, half printable-range
	// bytes; they must not be classified as char sequences.
	c := clusterOf(20, func(i int) []byte {
		return []byte{0x00, byte(0x60 + i)}
	}, plainMsg)
	d := Deduce(c)
	if d.Label == LabelChars {
		t.Error("small integers misclassified as char-sequence")
	}
}

func TestCharsRuleToleratesTerminators(t *testing.T) {
	words := []string{"alpha\x00", "bravo\x00", "charlie\x00", "deltaX\x00", "echoYZ\x00", "foxtrot\x00"}
	c := clusterOf(len(words), func(i int) []byte { return []byte(words[i]) }, plainMsg)
	d := Deduce(c)
	if d.Label != LabelChars {
		t.Errorf("zero-terminated strings = %v, want char-sequence", d.Label)
	}
}
