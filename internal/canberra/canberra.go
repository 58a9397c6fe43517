// Package canberra implements the Canberra distance (Lance & Williams,
// 1966) between byte vectors and its variable-length extension, the
// Canberra dissimilarity, introduced for network message segments by
// Kleber, van der Heijden, and Kargl (NEMETYL, INFOCOM 2020).
//
// The field-type clustering paper (Section III-C) interprets every
// segment as a vector of byte values and uses the normalized Canberra
// dissimilarity between all segment pairs as the affinity input to
// DBSCAN.
package canberra

import (
	"errors"

	"protoclust/internal/vecmath"
)

// DefaultPenalty is the empirical penalty factor applied per
// non-overlapping byte when comparing segments of unequal length. The
// NEMETYL construction uses a sub-linear penalty so that, e.g., char
// sequences of different lengths remain clusterable while genuinely
// unrelated content does not. Ablation A3 in DESIGN.md sweeps this.
const DefaultPenalty = 0.3

// ErrEmpty is returned when a segment of length zero is compared.
var ErrEmpty = errors.New("canberra: empty segment")

// ErrBadPenalty is returned by the matrix builders for a NaN penalty
// factor. A NaN penalty makes every unequal-length dissimilarity NaN,
// which no ε comparison admits, so DBSCAN would quietly drop those
// pairs instead of failing.
var ErrBadPenalty = errors.New("canberra: penalty factor is NaN")

// Distance returns the raw Canberra distance between two equal-length
// byte vectors: Σ |x_i − y_i| / (x_i + y_i), where terms with
// x_i = y_i = 0 contribute zero. The result is in [0, len(x)].
func Distance(x, y []byte) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("canberra: length mismatch")
	}
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for i := range x {
		if x[i] == 0 && y[i] == 0 {
			continue
		}
		a, b := float64(x[i]), float64(y[i])
		d := a - b
		if d < 0 {
			d = -d
		}
		sum += d / (a + b)
	}
	return sum, nil
}

// NormalizedDistance returns the Canberra distance divided by the vector
// length, yielding a value in [0, 1].
func NormalizedDistance(x, y []byte) (float64, error) {
	d, err := Distance(x, y)
	if err != nil {
		return 0, err
	}
	return d / float64(len(x)), nil
}

// Dissimilarity computes the Canberra dissimilarity between two segments
// of possibly different lengths using DefaultPenalty.
func Dissimilarity(s, t []byte) (float64, error) {
	return DissimilarityPenalty(s, t, DefaultPenalty)
}

// DissimilarityPenalty computes the variable-length Canberra
// dissimilarity with an explicit penalty factor pf in [0, 1].
//
// For |s| ≤ |t| the shorter segment slides over the longer one; at each
// offset the normalized Canberra distance of the overlap is computed and
// the minimum dmin over all offsets is kept. The final dissimilarity
// blends the best overlap with a penalty for the |t|−|s| unmatched
// bytes:
//
//	D = ( |s|·dmin + (|t|−|s|)·pf·(1+dmin) ) / |t|
//
// clamped to [0, 1]. Properties: D(s,s) = 0; symmetric; equal-length
// segments reduce to the normalized Canberra distance; a short segment
// contained verbatim in a longer one scores pf·(|t|−|s|)/|t|.
func DissimilarityPenalty(s, t []byte, pf float64) (float64, error) {
	if len(s) == 0 || len(t) == 0 {
		return 0, ErrEmpty
	}
	if len(s) > len(t) {
		s, t = t, s
	}
	if pf < 0 {
		pf = 0
	}
	ls, lt := len(s), len(t)
	if ls == lt {
		return NormalizedDistance(s, t)
	}

	dmin := 2.0
	for off := 0; off+ls <= lt; off++ {
		d, err := NormalizedDistance(s, t[off:off+ls])
		if err != nil {
			return 0, err
		}
		if d < dmin {
			dmin = d
			if vecmath.IsZero(dmin) {
				break
			}
		}
	}

	dis := (float64(ls)*dmin + float64(lt-ls)*pf*(1+dmin)) / float64(lt)
	if dis > 1 {
		dis = 1
	}
	return dis, nil
}
