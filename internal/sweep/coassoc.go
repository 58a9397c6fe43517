package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"protoclust/internal/dbscan"
	"protoclust/internal/dissim"
	"protoclust/internal/eval"
	"protoclust/internal/netmsg"
	"protoclust/internal/vecmath"
)

// ensembleEpsilon is the co-association dissimilarity cut: a pair
// clusters together in the ensemble when more than half of the member
// configurations voted it into one cluster (1 − votes/total < 0.5).
const ensembleEpsilon = 0.5

// ensembleMinPts keeps the final DBSCAN cut permissive: the density
// evidence already lives in the votes, so a pair backed by a majority
// suffices to seed a cluster.
const ensembleMinPts = 2

// coassocMatrix is the co-association dissimilarity over one segmenter
// group's pool: entry (i, j) is 1 − votes(i,j)/total, where votes sums
// the weights of the member configurations that placed i and j in the
// same cluster. It stores the strict upper triangle of vote sums: uint16
// counts for equal votes — n(n−1)/2 × 2 bytes, half the resident
// footprint of a condensed float32 matrix — or float64 masses for
// score-weighted votes, whose weights are fractional. It serves Dist and
// the storage-order row suffixes dbscan.Cluster reads, routing every
// value through dbscan.Quantize so the final DBSCAN cut sees the same
// bits a materialized backend would.
type coassocMatrix[V uint16 | float64] struct {
	n     int
	total V
	votes []V
}

var _ dbscan.Matrix = (*coassocMatrix[uint16])(nil)

// newCoassocMatrix allocates the vote triangle, honoring the memory
// budget the dissimilarity matrix obeys (≤ 0 means unbounded here; the
// shared matrix build has already vetted the pool size).
func newCoassocMatrix[V uint16 | float64](n int, budget int64) (*coassocMatrix[V], error) {
	bytes, err := dbscan.CondensedBytes(n)
	if err != nil {
		return nil, fmt.Errorf("sweep: co-association: %w", err)
	}
	bytes = bytes / 4 * int64(binary.Size(V(0))) // V votes vs float32 entries
	if budget > 0 && bytes > budget {
		return nil, fmt.Errorf("%w: co-association triangle needs %d bytes, budget is %d",
			dissim.ErrPoolTooLarge, bytes, budget)
	}
	return &coassocMatrix[V]{n: n, votes: make([]V, vecmath.CheckedTriNum(n))}, nil
}

// accumulate adds one member labeling with weight w: every
// intra-cluster pair gains w votes. Labels use dbscan.Noise for
// unclustered entries, which never vote. Accumulation happens
// sequentially in grid order, so float sums are bit-stable across runs.
func (c *coassocMatrix[V]) accumulate(labels []int, w V) {
	c.total += w
	// i stops at n-2: the last row has no j > i partner, and off(i, i+1)
	// is undefined there.
	for i := 0; i < c.n-1; i++ {
		li := labels[i]
		if li == dbscan.Noise {
			continue
		}
		base := vecmath.CheckedCondensedOff(i, i+1, c.n) - i - 1 // off(i, j) - j
		for j := i + 1; j < c.n; j++ {
			if labels[j] == li {
				c.votes[base+j] += w
			}
		}
	}
}

// Len returns the number of points.
func (c *coassocMatrix[V]) Len() int { return c.n }

// dist converts a vote sum to the quantized dissimilarity.
func (c *coassocMatrix[V]) dist(votes V) float32 {
	return dbscan.Quantize(1 - float64(votes)/float64(c.total))
}

// Dist returns the co-association dissimilarity between i and j.
func (c *coassocMatrix[V]) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return float64(c.dist(c.votes[vecmath.CheckedCondensedOff(i, j, c.n)]))
}

// coassocChunk bounds StreamSuffix span lengths (see CondensedMatrix).
const coassocChunk = 256

// StreamSuffix yields row i's columns j > i — contiguous in the
// triangle — as quantized float32 chunks (see dbscan.Matrix).
func (c *coassocMatrix[V]) StreamSuffix(i int, fn func(lo int, vals []float32)) {
	if i+1 >= c.n {
		return
	}
	buf := make([]float32, min(coassocChunk, c.n-i-1))
	start := vecmath.CheckedCondensedOff(i, i+1, c.n)
	for lo := i + 1; lo < c.n; lo += coassocChunk {
		hi := min(lo+coassocChunk, c.n)
		for j := lo; j < hi; j++ {
			buf[j-lo] = c.dist(c.votes[start+j-i-1])
		}
		fn(lo, buf[:hi-lo])
	}
}

// memberWeight is one member's vote weight in a weighted ensemble: its
// F-score when ground truth scored the sweep, its silhouette otherwise,
// clamped to be non-negative (a negative silhouette is worse than
// uninformative, not negatively informative).
func memberWeight(r *ConfigResult, truth bool) float64 {
	if r.Scores == nil {
		return 0
	}
	w := r.Scores.Silhouette
	if truth {
		w = r.Scores.FScore
	}
	if w < 0 {
		return 0
	}
	return w
}

// EnsembleResult is the co-association consensus of one segmenter
// group.
type EnsembleResult struct {
	// Segmenter names the group.
	Segmenter string `json:"segmenter"`
	// Members lists the configuration indexes whose labels voted.
	Members []int `json:"members"`
	// Clusters and Noise summarize the consensus clustering over the
	// group's unique-segment pool.
	Clusters int `json:"clusters"`
	Noise    int `json:"noise"`
	// Silhouette scores the consensus labels on the group's Canberra
	// matrix (not the co-association matrix), comparable to the member
	// configurations' internal validity.
	Silhouette float64 `json:"silhouette"`
	// AdjustedRand and VMeasure score the consensus against ground truth
	// when available.
	AdjustedRand float64 `json:"adjusted_rand,omitempty"`
	VMeasure     float64 `json:"v_measure,omitempty"`
	// Weighted reports whether member votes were weighted by sweep
	// score instead of equally.
	Weighted bool `json:"weighted,omitempty"`
	// LabelsHash is the SHA-256 of the consensus label vector — the
	// determinism witness: identical across runs and GOMAXPROCS settings.
	LabelsHash string `json:"labels_hash"`

	// Labels is the consensus pool labeling (dbscan.Noise = −1).
	Labels []int `json:"labels"`
}

// ensembleGroup runs co-association voting over one segmenter group's
// completed configurations. Returns nil when fewer than two members
// completed (no consensus to form). Accumulation walks the report in
// grid order, so the vote matrix — and hence the consensus — is
// deterministic regardless of fan-out scheduling. With weighted set,
// each member votes with its sweep score (see memberWeight) instead of
// equally; when every member's weight is zero the weighted path
// degrades to equal votes rather than an empty consensus.
func ensembleGroup(ctx context.Context, segmenter string, g *group, results []ConfigResult, truth, weighted bool) (*EnsembleResult, error) {
	var members []int
	for i := range results {
		if results[i].Config.Segmenter == segmenter && results[i].Status == StatusOK {
			members = append(members, i)
		}
	}
	if len(members) < 2 {
		return nil, nil
	}
	if len(members) > int(^uint16(0)) {
		members = members[:int(^uint16(0))] // uint16 vote counts; unreachable in practice
	}
	var votes dbscan.Matrix
	if weighted {
		wm, err := newCoassocMatrix[float64](g.pool.Size(), 0)
		if err != nil {
			return nil, err
		}
		totalW := 0.0
		for _, i := range members {
			totalW += memberWeight(&results[i], truth)
		}
		for _, i := range members {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			w := memberWeight(&results[i], truth)
			if totalW == 0 {
				w = 1 // degenerate: no member scored above zero
			}
			wm.accumulate(results[i].labels, w)
		}
		votes = wm
	} else {
		cm, err := newCoassocMatrix[uint16](g.pool.Size(), 0)
		if err != nil {
			return nil, err
		}
		for _, i := range members {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cm.accumulate(results[i].labels, 1)
		}
		votes = cm
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := dbscan.Cluster(votes, ensembleEpsilon, ensembleMinPts)
	if err != nil {
		return nil, err
	}
	ens := &EnsembleResult{
		Segmenter:  segmenter,
		Members:    members,
		Clusters:   res.NumClusters,
		Weighted:   weighted,
		Labels:     res.Labels,
		Silhouette: eval.Silhouette(g.m, res.Labels),
		LabelsHash: hashLabels(res.Labels),
	}
	for _, l := range res.Labels {
		if l == dbscan.Noise {
			ens.Noise++
		}
	}
	if truth {
		ext := eval.External(labelTypeLists(g, res.Labels, res.NumClusters))
		ens.AdjustedRand, ens.VMeasure = ext.AdjustedRand, ext.VMeasure
	}
	return ens, nil
}

// labelTypeLists converts a pool labeling into the per-cluster and
// noise ground-truth type lists eval.External consumes.
func labelTypeLists(g *group, labels []int, numClusters int) (clusters [][]netmsg.FieldType, noise []netmsg.FieldType) {
	clusters = make([][]netmsg.FieldType, numClusters)
	for idx, l := range labels {
		typ, _ := g.pool.Unique[idx].DominantTrueType()
		if l == dbscan.Noise {
			noise = append(noise, typ)
		} else {
			clusters[l] = append(clusters[l], typ)
		}
	}
	return clusters, noise
}

// hashLabels is the determinism witness: a stable digest of the label
// vector.
func hashLabels(labels []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(l)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
