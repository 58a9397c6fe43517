package oracle

import "errors"

// ErrNetzobBudget is returned by NetzobBoundaries when the alignment
// needs more Needleman-Wunsch cells than its budget, either by the
// pre-flight estimate or by the cells actually spent.
var ErrNetzobBudget = errors.New("oracle: netzob alignment budget exceeded")

// Netzob's conservation threshold and pairwise alignment scores.
const (
	netzobConservation = 0.9
	netzobMatch        = 2
	netzobMismatch     = -1
	netzobGap          = -2
)

// NetzobBoundaries is the Netzob-style alignment segmenter written out
// directly: star alignment of every message against the consensus of
// all rows aligned so far, recounted from scratch into a map per column
// before each alignment, a full two-dimensional Needleman-Wunsch matrix
// per message, static/dynamic column classification by modal count,
// and boundaries where the classification changes.
//
// It returns each message's boundary offsets (interior positions, in
// increasing order) and the matrix cells spent. When the pre-flight
// estimate n·maxLen² or the running cell count exceeds budget it
// returns ErrNetzobBudget with the cells spent up to that point. An
// empty input returns nil boundaries and zero cells.
func NetzobBoundaries(msgs [][]byte, budget int64) (boundaries [][]int, spent int64, err error) {
	if len(msgs) == 0 {
		return nil, 0, nil
	}
	maxLen := 0
	for _, m := range msgs {
		if len(m) > maxLen {
			maxLen = len(m)
		}
	}
	if int64(len(msgs))*int64(maxLen)*int64(maxLen) > budget {
		return nil, 0, ErrNetzobBudget
	}

	aligned := make([][]int16, 1, len(msgs))
	aligned[0] = netzobRow(msgs[0])
	for _, m := range msgs[1:] {
		consensus := netzobConsensus(aligned)
		spent += int64(len(consensus)+1) * int64(len(m)+1)
		if spent > budget {
			return nil, spent, ErrNetzobBudget
		}
		rowA, rowB := netzobAlign(consensus, m)
		aligned = netzobExpand(aligned, rowA)
		aligned = append(aligned, rowB)
	}

	cols := len(aligned[0])
	static := make([]bool, cols)
	for c := 0; c < cols; c++ {
		counts := make(map[int16]int)
		nonGap := 0
		for _, row := range aligned {
			v := row[c]
			if v < 0 {
				continue
			}
			nonGap++
			counts[v]++
		}
		modal := 0
		for _, n := range counts {
			if n > modal {
				modal = n
			}
		}
		static[c] = nonGap > 0 && float64(modal) >= netzobConservation*float64(nonGap)
	}

	boundaryCols := make([]bool, cols)
	for c := 1; c < cols; c++ {
		if static[c] != static[c-1] {
			boundaryCols[c] = true
		}
	}

	boundaries = make([][]int, len(msgs))
	for i, m := range msgs {
		row := aligned[i]
		bytePos := 0
		for c := 0; c < cols; c++ {
			if boundaryCols[c] && bytePos > 0 && bytePos < len(m) {
				boundaries[i] = append(boundaries[i], bytePos)
			}
			if row[c] >= 0 {
				bytePos++
			}
		}
	}
	return boundaries, spent, nil
}

// netzobRow widens bytes to int16 (gap = -1).
func netzobRow(data []byte) []int16 {
	row := make([]int16, len(data))
	for i, b := range data {
		row[i] = int16(b)
	}
	return row
}

// netzobConsensus returns the modal non-gap value per column, the
// smaller value on equal counts, and gap (-1) for an all-gap column.
func netzobConsensus(aligned [][]int16) []int16 {
	cols := len(aligned[0])
	out := make([]int16, cols)
	counts := make(map[int16]int)
	for c := 0; c < cols; c++ {
		clear(counts)
		for _, row := range aligned {
			if row[c] >= 0 {
				counts[row[c]]++
			}
		}
		best, bestN := int16(-1), 0
		for v, n := range counts {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		out[c] = best
	}
	return out
}

// netzobAlign runs Needleman-Wunsch between the consensus (gap entries
// never match) and a message. rowA marks, per merged column, a consumed
// consensus column (0) or an inserted gap column (-1); rowB is the
// message in the merged column space. The traceback prefers the
// diagonal, then up, then left.
func netzobAlign(consensus []int16, data []byte) (rowA, rowB []int16) {
	la, lb := len(consensus), len(data)
	score := make([][]int32, la+1)
	for i := range score {
		score[i] = make([]int32, lb+1)
	}
	for i := 1; i <= la; i++ {
		score[i][0] = int32(i) * netzobGap
	}
	for j := 1; j <= lb; j++ {
		score[0][j] = int32(j) * netzobGap
	}
	sub := func(i, j int) int32 {
		if consensus[i-1] >= 0 && consensus[i-1] == int16(data[j-1]) {
			return score[i-1][j-1] + netzobMatch
		}
		return score[i-1][j-1] + netzobMismatch
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			best := sub(i, j)
			if del := score[i-1][j] + netzobGap; del > best {
				best = del
			}
			if ins := score[i][j-1] + netzobGap; ins > best {
				best = ins
			}
			score[i][j] = best
		}
	}
	var ra, rb []int16
	i, j := la, lb
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && score[i][j] == sub(i, j):
			ra = append(ra, 0)
			rb = append(rb, int16(data[j-1]))
			i--
			j--
		case i > 0 && score[i][j] == score[i-1][j]+netzobGap:
			ra = append(ra, 0)
			rb = append(rb, -1)
			i--
		default:
			ra = append(ra, -1)
			rb = append(rb, int16(data[j-1]))
			j--
		}
	}
	for l, r := 0, len(ra)-1; l < r; l, r = l+1, r-1 {
		ra[l], ra[r] = ra[r], ra[l]
		rb[l], rb[r] = rb[r], rb[l]
	}
	return ra, rb
}

// netzobExpand inserts a gap column into every row wherever rowA holds
// a gap, copying every row; without a gap it returns aligned unchanged.
func netzobExpand(aligned [][]int16, rowA []int16) [][]int16 {
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
