// Package netzob implements an alignment-based segmenter in the style
// of Netzob (Bossert, Guihéry, Hiet: "Towards Automated Protocol
// Reverse Engineering Using Semantic Information", AsiaCCS 2014).
//
// Messages are progressively aligned (star alignment with
// Needleman-Wunsch against the evolving consensus); alignment columns
// are classified as static or dynamic by value conservation, and
// boundaries fall where the classification changes. Alignment works
// well on protocols with distinct repeating structure (NTP, AWDL's TLV
// records) but its cost grows with trace size × message length² — the
// paper reports Netzob failing on the large DHCP and SMB traces and on
// AU. A work budget reproduces that behaviour deterministically.
//
// A run costs its Needleman-Wunsch cells plus O(n·cols) count updates:
// each column keeps value counts and its modal value as messages are
// aligned, so the consensus is read off the columns instead of
// recounted, and every alignment reuses one score buffer. The budget
// counts cells only.
package netzob

import (
	"context"
	"fmt"
	"slices"

	"protoclust/internal/netmsg"
	"protoclust/internal/segment"
)

// DefaultBudget is the default alignment work budget in
// Needleman-Wunsch matrix cells. Star alignment costs roughly
// n·consensusLen·msgLen cells overall; the default is calibrated so the
// paper's failing runs (DHCP-1000, SMB-1000, AU) exceed it on the
// synthetic traces while all other evaluation runs fit (DESIGN.md §2).
const DefaultBudget = 20_000_000

// Conservation is the fraction of non-gap message bytes that must share
// a column's modal value for the column to count as static.
const conservationThreshold = 0.9

// Scoring parameters of the pairwise alignment.
const (
	matchScore    = 2
	mismatchScore = -1
	gapScore      = -2
)

// Segmenter is the alignment-based segmenter.
type Segmenter struct {
	// Budget bounds the total alignment work in matrix cells; 0 means
	// DefaultBudget. Exceeding it returns segment.ErrBudgetExceeded.
	Budget int64
}

var _ segment.Segmenter = (*Segmenter)(nil)

// Name returns "netzob".
func (*Segmenter) Name() string { return "netzob" }

// Segment aligns all messages and derives boundaries from conservation
// changes across alignment columns. ctx is checked up front and before
// every pairwise alignment (one Needleman-Wunsch matrix is the bounded
// unit of work).
func (s *Segmenter) Segment(ctx context.Context, tr *netmsg.Trace) ([]netmsg.Segment, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("netzob: %w", err)
	}
	budget := s.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	msgs := tr.Messages
	if len(msgs) == 0 {
		return nil, nil
	}

	// Pre-flight cost estimate: progressive alignment computes one
	// matrix of ~consensusLen × msgLen per message, and the consensus
	// grows towards the longest message, so the total is ≈ n·maxLen².
	maxLen := 0
	for _, m := range msgs {
		if len(m.Data) > maxLen {
			maxLen = len(m.Data)
		}
	}
	estimate := int64(len(msgs)) * int64(maxLen) * int64(maxLen)
	if estimate > budget {
		return nil, fmt.Errorf("%w: netzob alignment needs ~%d cells, budget %d",
			segment.ErrBudgetExceeded, estimate, budget)
	}

	aligned, cols, _, err := starAlign(ctx, msgs, budget)
	if err != nil {
		return nil, err
	}

	// Classify columns and find global boundary columns.
	static := make([]bool, len(cols))
	for c, col := range cols {
		static[c] = col.nonGap > 0 && float64(col.modalN) >= conservationThreshold*float64(col.nonGap)
	}

	boundaryCols := make([]bool, len(cols))
	for c := 1; c < len(cols); c++ {
		if static[c] != static[c-1] {
			boundaryCols[c] = true
		}
	}

	// Map column boundaries back to byte offsets per message.
	var out []netmsg.Segment
	for i, m := range msgs {
		row := aligned[i]
		var boundaries []int
		bytePos := 0
		for c := range cols {
			if boundaryCols[c] && bytePos > 0 && bytePos < len(m.Data) {
				boundaries = append(boundaries, bytePos)
			}
			if row[c] >= 0 {
				bytePos++
			}
		}
		out = append(out, segment.FromBoundaries(m, boundaries)...)
	}
	return out, nil
}

// toRow widens bytes to int16 (gap = -1).
func toRow(data []byte) []int16 {
	row := make([]int16, len(data))
	for i, b := range data {
		row[i] = int16(b)
	}
	return row
}

// column is one alignment column's value statistics over every row
// aligned so far. Rows only ever gain bytes, so counts only grow and
// the modal value can be kept exactly as bytes arrive.
type column struct {
	counts [256]int32
	nonGap int32
	// modal is the most frequent value, the smaller one on equal
	// counts, and modalN its count; modal is -1 (gap) while nonGap is 0.
	modal  int16
	modalN int32
}

func newColumn() *column { return &column{modal: -1} }

// add counts one more occurrence of v. Only v's count changes, so v
// takes over the mode when it now leads, or ties the mode with the
// smaller value; no other value can.
func (c *column) add(v byte) {
	c.nonGap++
	c.counts[v]++
	n := c.counts[v]
	if n > c.modalN || (n == c.modalN && int16(v) < c.modal) {
		c.modal, c.modalN = int16(v), n
	}
}

// starAlign progressively aligns every message against the consensus
// of the rows aligned so far. It returns the aligned rows (message i
// with gaps as -1 entries, all of one length), the statistics of each
// alignment column, and the Needleman-Wunsch cells spent. The spend is
// checked against budget before each alignment; ctx is checked before
// each message.
func starAlign(ctx context.Context, msgs []*netmsg.Message, budget int64) (aligned [][]int16, cols []*column, spent int64, err error) {
	aligned = make([][]int16, 1, len(msgs))
	aligned[0] = toRow(msgs[0].Data)
	cols = make([]*column, len(msgs[0].Data))
	for c, b := range msgs[0].Data {
		cols[c] = newColumn()
		cols[c].add(b)
	}
	var (
		nw        aligner
		consensus []int16
		merged    []*column
	)
	for _, m := range msgs[1:] {
		if err := ctx.Err(); err != nil {
			return nil, nil, spent, fmt.Errorf("netzob: %w", err)
		}
		consensus = consensus[:0]
		for _, col := range cols {
			consensus = append(consensus, col.modal)
		}
		spent += int64(len(consensus)+1) * int64(len(m.Data)+1)
		if spent > budget {
			return nil, nil, spent, fmt.Errorf("%w: netzob alignment spent %d cells", segment.ErrBudgetExceeded, spent)
		}
		rowA, rowB := nw.align(consensus, m.Data)
		// rowA describes how the existing columns map to the new column
		// space; apply the same gap insertions to every aligned row and
		// to the column statistics, where a new gap column starts empty.
		aligned = expandAll(aligned, rowA)
		aligned = append(aligned, rowB)
		if len(rowA) != len(cols) {
			merged = merged[:0]
			src := 0
			for _, v := range rowA {
				if v < 0 {
					merged = append(merged, newColumn())
					continue
				}
				merged = append(merged, cols[src])
				src++
			}
			cols, merged = merged, cols
		}
		for c, v := range rowB {
			if v >= 0 {
				cols[c].add(byte(v))
			}
		}
	}
	return aligned, cols, spent, nil
}

// aligner runs Needleman-Wunsch alignments in one score buffer that
// grows to the largest matrix seen and is reused across messages.
type aligner struct {
	score  []int32
	ra, rb []int16
}

// align runs Needleman-Wunsch between the consensus (int16, gap entries
// never match) and a message. rowA encodes, per merged column, whether
// a consensus column was consumed (0) or a gap was inserted (-1); rowB
// is the message in the merged column space. rowA aliases the aligner
// and is valid until the next call; rowB is freshly allocated.
func (a *aligner) align(consensus []int16, data []byte) (rowA, rowB []int16) {
	la, lb := len(consensus), len(data)
	w := lb + 1
	cells := (la + 1) * w
	if cap(a.score) < cells {
		a.score = make([]int32, cells)
	}
	score := a.score[:cells]
	for j := 0; j <= lb; j++ {
		score[j] = int32(j) * gapScore
	}
	for i := 1; i <= la; i++ {
		fillRow(score[(i-1)*w:i*w], score[i*w:(i+1)*w], consensus[i-1], data, int32(i)*gapScore)
	}
	// Traceback: diagonal first, then up, then left.
	ra, rb := a.ra[:0], a.rb[:0]
	i, j := la, lb
	for i > 0 || j > 0 {
		at := i*w + j
		switch {
		case i > 0 && j > 0 && score[at] == score[at-w-1]+subScore(consensus[i-1], data[j-1]):
			ra = append(ra, 0) // consensus column consumed
			rb = append(rb, int16(data[j-1]))
			i--
			j--
		case i > 0 && score[at] == score[at-w]+gapScore:
			ra = append(ra, 0) // consensus column consumed
			rb = append(rb, -1)
			i--
		default:
			ra = append(ra, -1)
			rb = append(rb, int16(data[j-1]))
			j--
		}
	}
	a.ra, a.rb = ra, rb
	reverse(ra)
	reverse(rb)
	return ra, slices.Clone(rb)
}

// fillRow computes score row cur from the row prev above it, for the
// consensus value ci against every message byte; left is the row's
// first cell.
func fillRow(prev, cur []int32, ci int16, data []byte, left int32) {
	cur[0] = left
	// diag[j], up[j] and out[j] are the cells above-left, above and at
	// data[j]'s column, resliced to len(data) so the loop carries no
	// bounds checks.
	diag, up, out := prev[:len(data)], prev[1:][:len(data)], cur[1:][:len(data)]
	for j, b := range data {
		left = max(diag[j]+subScore(ci, b), up[j]+gapScore, left+gapScore)
		out[j] = left
	}
}

// subScore is the substitution score of a consensus value against a
// message byte; a gap consensus (-1) never equals a byte.
func subScore(c int16, b byte) int32 {
	if c == int16(b) {
		return matchScore
	}
	return mismatchScore
}

// expandAll inserts gap columns into every existing row wherever the
// aligned consensus row (rowA) acquired a gap. When no gap was inserted
// the input is returned unchanged.
func expandAll(aligned [][]int16, rowA []int16) [][]int16 {
	hasGap := false
	for _, v := range rowA {
		if v < 0 {
			hasGap = true
			break
		}
	}
	if !hasGap {
		return aligned
	}
	out := make([][]int16, len(aligned))
	for r, row := range aligned {
		newRow := make([]int16, 0, len(rowA))
		src := 0
		for _, v := range rowA {
			if v < 0 {
				newRow = append(newRow, -1)
				continue
			}
			newRow = append(newRow, row[src])
			src++
		}
		out[r] = newRow
	}
	return out
}

func reverse(xs []int16) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
