package netzob

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"protoclust/internal/netmsg"
	"protoclust/internal/oracle"
	"protoclust/internal/protocols"
	"protoclust/internal/segment"
)

// requireMatchesOracle segments msgs with budget in both the segmenter
// and the direct transcription in internal/oracle, and requires the
// same budget outcome, the same cells spent (on success and on a
// mid-alignment budget failure), and byte-identical segments.
func requireMatchesOracle(t *testing.T, name string, msgs []*netmsg.Message, budget int64) {
	t.Helper()
	data := make([][]byte, len(msgs))
	for i, m := range msgs {
		data[i] = m.Data
	}
	wantB, wantSpent, wantErr := oracle.NetzobBoundaries(data, budget)

	segs, err := (&Segmenter{Budget: budget}).Segment(context.Background(), &netmsg.Trace{Messages: msgs})
	if err != nil && !errors.Is(err, segment.ErrBudgetExceeded) {
		t.Fatalf("%s: Segment: %v", name, err)
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: Segment err = %v, oracle err = %v", name, err, wantErr)
	}
	if len(msgs) > 0 && (err == nil || wantSpent > 0) {
		if _, _, spent, _ := starAlign(context.Background(), msgs, budget); spent != wantSpent {
			t.Fatalf("%s: spent %d cells, oracle %d", name, spent, wantSpent)
		}
	}
	if err != nil {
		return
	}

	var want []netmsg.Segment
	for i, m := range msgs {
		want = append(want, segment.FromBoundaries(m, wantB[i])...)
	}
	if len(segs) != len(want) {
		t.Fatalf("%s: %d segments, oracle %d", name, len(segs), len(want))
	}
	for k := range segs {
		if segs[k] != want[k] {
			t.Fatalf("%s: segment %d = %+v, oracle %+v", name, k, segs[k], want[k])
		}
	}
}

// dedupTrace generates a protocol trace and drops duplicate payloads,
// as the pipeline does before segmenting.
func dedupTrace(tb testing.TB, proto string, n int, seed int64) *netmsg.Trace {
	tb.Helper()
	tr, err := protocols.Generate(proto, n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Deduplicate()
}

func TestSegmentMatchesOracleGenerated(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, proto := range []string{"dhcp", "ntp", "awdl", "dns", "nbns", "modbus", "smb"} {
		for _, n := range []int{50, 100, 200} {
			for _, seed := range seeds {
				tr := dedupTrace(t, proto, n, seed)
				requireMatchesOracle(t, fmt.Sprintf("%s-%d seed %d", proto, n, seed), tr.Messages, DefaultBudget)
			}
		}
	}
}

// TestBudgetSemantics pins the budget as a count of Needleman-Wunsch
// cells. The alignment passes at exactly the cells the oracle spends
// and fails one cell short. A trace passes the segmenter at exactly the
// larger of that spend and the pre-flight estimate n·maxLen², and fails
// one cell short: the estimate binds on dhcp and awdl, whose messages
// vary in length, and the spend on ntp, whose consensus outgrows its
// fixed message length. At the default budget the paper's failing DHCP
// size fails on every seed.
func TestBudgetSemantics(t *testing.T) {
	for _, tc := range []struct {
		proto string
		n     int
	}{{"dhcp", 200}, {"awdl", 100}, {"ntp", 200}} {
		tr := dedupTrace(t, tc.proto, tc.n, 1)
		data := make([][]byte, len(tr.Messages))
		maxLen := 0
		for i, m := range tr.Messages {
			data[i] = m.Data
			maxLen = max(maxLen, len(m.Data))
		}
		_, spent, err := oracle.NetzobBoundaries(data, DefaultBudget)
		if err != nil {
			t.Fatalf("%s-%d: oracle: %v", tc.proto, tc.n, err)
		}
		if _, _, _, err := starAlign(context.Background(), tr.Messages, spent); err != nil {
			t.Errorf("%s-%d: alignment with %d cells (oracle spend): %v", tc.proto, tc.n, spent, err)
		}
		if _, _, _, err := starAlign(context.Background(), tr.Messages, spent-1); !errors.Is(err, segment.ErrBudgetExceeded) {
			t.Errorf("%s-%d: alignment with %d cells: err = %v, want ErrBudgetExceeded", tc.proto, tc.n, spent-1, err)
		}
		need := max(spent, int64(len(data))*int64(maxLen)*int64(maxLen))
		if _, err := (&Segmenter{Budget: need}).Segment(context.Background(), tr); err != nil {
			t.Errorf("%s-%d: budget %d (spend %d): %v", tc.proto, tc.n, need, spent, err)
		}
		if _, err := (&Segmenter{Budget: need - 1}).Segment(context.Background(), tr); !errors.Is(err, segment.ErrBudgetExceeded) {
			t.Errorf("%s-%d: budget %d: err = %v, want ErrBudgetExceeded", tc.proto, tc.n, need-1, err)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		tr := dedupTrace(t, "dhcp", 300, seed)
		if _, err := (&Segmenter{}).Segment(context.Background(), tr); !errors.Is(err, segment.ErrBudgetExceeded) {
			t.Errorf("dhcp-300 seed %d: err = %v, want ErrBudgetExceeded", seed, err)
		}
	}
}

// FuzzSegmentMatchesOracle requires the segmenter to match the oracle
// on one to six messages of at most 64 bytes under a fuzzed budget:
// the same budget outcome, cells spent and segments.
func FuzzSegmentMatchesOracle(f *testing.F) {
	f.Add(uint32(1<<20), []byte{1, 2, 3, 4}, []byte{1, 2, 9, 3, 4}, []byte{}, []byte{}, []byte{}, []byte{})
	f.Add(uint32(60), []byte{0xAA}, []byte{0xAA, 0xBB}, []byte{0xAA, 0xBB, 0xCC}, []byte{}, []byte{}, []byte{})
	f.Add(uint32(1<<20), []byte{9, 7, 9, 7}, []byte{7, 9, 7, 9}, []byte{9, 9}, []byte{7, 7}, []byte{5}, []byte{9, 7, 5, 3})
	f.Add(uint32(1<<20), []byte{5, 5, 5}, []byte{}, []byte{5, 5, 5}, []byte{5, 6, 5}, []byte{}, []byte{})

	f.Fuzz(func(t *testing.T, budget uint32, a, b, c, d, e, g []byte) {
		var msgs []*netmsg.Message
		for _, data := range [][]byte{a, b, c, d, e, g} {
			if len(data) > 64 {
				return
			}
			if len(data) > 0 {
				msgs = append(msgs, &netmsg.Message{Data: data})
			}
		}
		if len(msgs) == 0 {
			return
		}
		// 1..2^17 cells: six 64-byte messages spend up to ~150k cells,
		// so the fuzzer reaches pre-flight, mid-alignment and no
		// failure.
		cells := int64(budget%(1<<17)) + 1
		requireMatchesOracle(t, fmt.Sprintf("budget %d", cells), msgs, cells)
	})
}

// BenchmarkSegmentContext segments the deduplicated dhcp-200 trace, the
// Netzob job of the service benchmark, and reports the time per
// Needleman-Wunsch cell.
func BenchmarkSegmentContext(b *testing.B) {
	tr := dedupTrace(b, "dhcp", 200, 1)
	_, _, spent, err := starAlign(context.Background(), tr.Messages, DefaultBudget)
	if err != nil {
		b.Fatal(err)
	}
	s := &Segmenter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Segment(context.Background(), tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(spent)/float64(b.N), "ns/cell")
	b.ReportMetric(float64(spent), "cells/op")
}
