package vecmath

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"single", []float64{4}, 4},
		{"pair", []float64{2, 4}, 3},
		{"negative", []float64{-1, 1}, 0},
		{"many", []float64{1, 2, 3, 4, 5}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"single", []float64{7}, 7},
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"dups", []float64{5, 5, 5, 5}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Median(tt.in); !almostEqual(got, tt.want) {
				t.Errorf("Median(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 2, 2}); !almostEqual(got, 0) {
		t.Errorf("StdDev of constants = %v, want 0", got)
	}
	// Population stddev of {1,3} is 1.
	if got := StdDev([]float64{1, 3}); !almostEqual(got, 1) {
		t.Errorf("StdDev({1,3}) = %v, want 1", got)
	}
	if !math.IsNaN(StdDev(nil)) {
		t.Error("StdDev(nil) should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if got := Min(xs); got != -2 {
		t.Errorf("Min = %v, want -2", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if !math.IsInf(Min(nil), 1) {
		t.Error("Min(nil) should be +Inf")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max(nil) should be -Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{50, 3},
		{100, 5},
		{25, 2},
		{-5, 1},
		{105, 5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEqual(got, tt.want) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); !almostEqual(got, 5) {
		t.Errorf("Percentile 50 of {0,10} = %v, want 5", got)
	}
}

func TestPercentRank(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	// below 2: one element; equal: two → (1 + 1) / 4 * 100 = 50.
	if got := PercentRank(xs, 2); !almostEqual(got, 50) {
		t.Errorf("PercentRank(2) = %v, want 50", got)
	}
	if got := PercentRank(xs, 100); !almostEqual(got, 100) {
		t.Errorf("PercentRank(100) = %v, want 100", got)
	}
	if got := PercentRank(xs, -1); !almostEqual(got, 0) {
		t.Errorf("PercentRank(-1) = %v, want 0", got)
	}
	if !math.IsNaN(PercentRank(nil, 1)) {
		t.Error("PercentRank(nil) should be NaN")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Errorf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got[len(got)-1] != 1 {
		t.Error("Linspace must end exactly at hi")
	}
}

// Property: the mean lies between min and max.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= Min(clean)-1e-6 && m <= Max(clean)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the median of a slice equals the middle of its sorted copy.
func TestMedianSortedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Median(clean)
		cp := append([]float64(nil), clean...)
		sort.Float64s(cp)
		var want float64
		if len(cp)%2 == 1 {
			want = cp[len(cp)/2]
		} else {
			want = (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
		}
		return m == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PercentRank is monotonic in its value argument.
func TestPercentRankMonotonicProperty(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return PercentRank(clean, a) <= PercentRank(clean, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: StdDev is non-negative and zero for constant slices.
func TestStdDevNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		return StdDev(clean) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
