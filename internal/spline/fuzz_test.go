package spline

import (
	"math"
	"testing"
)

// FuzzSmoothMatchesOracle requires the local-support fit, evaluation and
// smoothing to match the full-loop oracle bit for bit on byte-derived
// inputs. Bytes decode in triples into (dx, y, w): the abscissae start
// at base and step by dx·2^exp, so a zero byte is a tie and exp spans
// domains from a few ulps wide to astronomically wide; w is a signed
// byte, so zero and negative weights occur.
func FuzzSmoothMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 10, 1, 1, 40, 1, 1, 90, 1, 1, 120, 1, 1, 200, 1}, 0.0, int8(0), uint8(0), 0.5)
	f.Add([]byte{0, 5, 3, 0, 9, 1, 2, 30, 2, 0, 31, 255, 1, 60, 0, 0, 90, 4}, 0.25, int8(-3), uint8(3), 0.1)
	f.Add([]byte{1, 0, 1, 1, 1, 1, 1, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0, 6, 1}, 1.0, int8(-52), uint8(9), 1.0)
	f.Add([]byte{7, 1, 2, 9, 200, 1, 0, 3, 1, 4, 4, 1}, -1e6, int8(40), uint8(1), -1.0)

	f.Fuzz(func(t *testing.T, data []byte, base float64, exp int8, nCtrl uint8, smoothness float64) {
		if len(data) > 3*200 {
			data = data[:3*200] // the full-loop oracle is O(m·nCtrl)
		}
		if math.IsNaN(base) || math.IsInf(base, 0) {
			base = 0
		}
		step := math.Ldexp(1, int(exp))
		var xs, ys, ws []float64
		x := base
		for i := 0; i+2 < len(data); i += 3 {
			x += float64(data[i]) * step
			xs = append(xs, x)
			ys = append(ys, float64(data[i+1])/255)
			ws = append(ws, float64(int8(data[i+2])))
		}
		requireFitMatchesOracle(t, "fuzz", xs, ys, ws, 4+int(nCtrl))
		requireFitMatchesOracle(t, "fuzz unweighted", xs, ys, nil, 4+int(nCtrl))
		requireSmoothMatchesOracle(t, "fuzz", xs, ys, ws, smoothness)
	})
}
