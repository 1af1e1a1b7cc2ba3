package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{1, 2}, 0.5); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("Quantile outside [0,1] should be NaN")
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("Quantile of singleton = %v, want 7", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64 // NaN means "must be NaN"
	}{
		{"empty slice", nil, 0.5, math.NaN()},
		{"empty slice q=0", []float64{}, 0, math.NaN()},
		{"single sample q=0", []float64{7}, 0, 7},
		{"single sample q=0.5", []float64{7}, 0.5, 7},
		{"single sample q=1", []float64{7}, 1, 7},
		{"q below range", []float64{1, 2, 3}, -0.01, math.NaN()},
		{"q above range", []float64{1, 2, 3}, 1.01, math.NaN()},
		{"q negative infinity", []float64{1, 2, 3}, math.Inf(-1), math.NaN()},
		{"q positive infinity", []float64{1, 2, 3}, math.Inf(1), math.NaN()},
		{"q NaN", []float64{1, 2, 3}, math.NaN(), math.NaN()},
		{"q NaN single sample", []float64{7}, math.NaN(), math.NaN()},
		{"exact endpoints", []float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		got := Quantile(c.xs, c.q)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Quantile = %v, want NaN", c.name, got)
			}
		} else if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("%s: Quantile = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

func TestQuantilePropertyWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		q := rng.Float64()
		v := Quantile(xs, q)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuantilesMatchesQuantile: one call over many qs answers what one call
// per q does, bit for bit, NaN rules included.
func TestQuantilesMatchesQuantile(t *testing.T) {
	qs := []float64{0, 0.1, 0.5, 0.99, 1, -0.1, math.NaN(), 1.5}
	for _, xs := range [][]float64{
		nil,
		{7},
		{3, 1, 2},
		{4, math.NaN(), 1, 9, 2.5, -3},
		{1, 1, 1, 2},
	} {
		got := Quantiles(xs, qs...)
		for i, q := range qs {
			want := Quantiles(xs, q)[0]
			if math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
				t.Errorf("Quantiles(%v)[%d] (q %v) = %v, one-q call gives %v", xs, i, q, got[i], want)
			}
		}
	}
	if got := Quantiles([]float64{1, 2}); len(got) != 0 {
		t.Errorf("Quantiles with no q = %v, want empty", got)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Fatalf("Median(odd) = %v, want 5", got)
	}
	if got := Median([]float64{4, 2}); got != 3 {
		t.Fatalf("Median(even) = %v, want 3", got)
	}
}

func TestFractionWhere(t *testing.T) {
	xs := []float64{-1, 0, 1, 2}
	got := FractionWhere(xs, func(x float64) bool { return x > 0 })
	if !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("FractionWhere = %v, want 0.5", got)
	}
	if !math.IsNaN(FractionWhere(nil, func(float64) bool { return true })) {
		t.Fatal("FractionWhere(nil) should be NaN")
	}
}

func TestDropNaN(t *testing.T) {
	xs := []float64{1, math.NaN(), 2, math.NaN()}
	got := DropNaN(xs)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("DropNaN = %v", got)
	}
}
