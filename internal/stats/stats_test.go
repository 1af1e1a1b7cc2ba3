package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= eps
}

func TestSumMean(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v, want 0", got)
	}
	if got := Sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Fatalf("Sum = %v, want 6.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if !math.IsNaN(Variance(nil)) {
		t.Fatal("Variance(nil) should be NaN")
	}
}

func TestCoV(t *testing.T) {
	if got := CoV([]float64{5, 5, 5}); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("CoV of constant = %v, want 0", got)
	}
	if !math.IsNaN(CoV([]float64{0, 0})) {
		t.Fatal("CoV with zero mean should be NaN")
	}
	if !math.IsNaN(CoV(nil)) {
		t.Fatal("CoV(nil) should be NaN")
	}
}

func TestNormCoVBounds(t *testing.T) {
	// All mass on a single element of n: normalized CoV must be exactly 1.
	for _, n := range []int{2, 4, 10, 100} {
		xs := make([]float64, n)
		xs[0] = 7
		if got := NormCoV(xs); !almostEqual(got, 1, 1e-9) {
			t.Fatalf("NormCoV(single spike, n=%d) = %v, want 1", n, got)
		}
	}
	if got := NormCoV([]float64{3, 3, 3, 3}); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("NormCoV(flat) = %v, want 0", got)
	}
	if !math.IsNaN(NormCoV([]float64{1})) {
		t.Fatal("NormCoV of one sample should be NaN")
	}
}

func TestNormCoVPropertyInUnitInterval(t *testing.T) {
	// Property: for any non-negative, non-degenerate sample, NormCoV in [0,1].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(64)
		xs := make([]float64, n)
		var sum float64
		for i := range xs {
			xs[i] = rng.Float64() * 100
			sum += xs[i]
		}
		if sum == 0 {
			return true
		}
		c := NormCoV(xs)
		return c >= -1e-12 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestP2A(t *testing.T) {
	if got := P2A([]float64{1, 1, 1, 5}); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("P2A = %v, want 2.5", got)
	}
	if got := P2A([]float64{3, 3}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("P2A of constant = %v, want 1", got)
	}
	if !math.IsNaN(P2A([]float64{0, 0})) {
		t.Fatal("P2A with zero mean should be NaN")
	}
}

func TestP2APropertyAtLeastOne(t *testing.T) {
	// Property: P2A >= 1 for non-negative series with positive mean.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() + 0.01
		}
		return P2A(xs) >= 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCCR(t *testing.T) {
	xs := []float64{10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	// Top 5% of 20 elements = 1 element = the 10, total = 29.
	if got := CCR(xs, 0.05); !almostEqual(got, 10.0/29.0, 1e-12) {
		t.Fatalf("CCR(5%%) = %v, want %v", got, 10.0/29.0)
	}
	if got := CCR(xs, 1); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("CCR(100%%) = %v, want 1", got)
	}
	if !math.IsNaN(CCR(nil, 0.1)) {
		t.Fatal("CCR(nil) should be NaN")
	}
	if !math.IsNaN(CCR(xs, 0)) || !math.IsNaN(CCR(xs, 1.5)) {
		t.Fatal("CCR with frac outside (0,1] should be NaN")
	}
	if !math.IsNaN(CCR([]float64{0, 0}, 0.5)) {
		t.Fatal("CCR with zero total should be NaN")
	}
}

func TestCCRPropertyMonotone(t *testing.T) {
	// Property: CCR is non-decreasing in frac, bounded by frac-proportionality
	// from below (top-k share >= k/n for a descending ranking).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
		}
		a, b := CCR(xs, 0.1), CCR(xs, 0.5)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return a <= b+1e-12 && b <= 1+1e-12 && a >= 0.1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrRatio(t *testing.T) {
	if got := WrRatio(1, 0); got != 1 {
		t.Fatalf("WrRatio(1,0) = %v, want 1", got)
	}
	if got := WrRatio(0, 1); got != -1 {
		t.Fatalf("WrRatio(0,1) = %v, want -1", got)
	}
	if got := WrRatio(2, 1); !almostEqual(got, 1.0/3.0, 1e-12) {
		t.Fatalf("WrRatio(2,1) = %v, want 1/3", got)
	}
	if !math.IsNaN(WrRatio(0, 0)) {
		t.Fatal("WrRatio(0,0) should be NaN")
	}
}

func TestMSE(t *testing.T) {
	if got := MSE([]float64{1, 2}, []float64{1, 4}); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("MSE = %v, want 2", got)
	}
	if !math.IsNaN(MSE([]float64{1}, []float64{1, 2})) {
		t.Fatal("MSE with mismatched lengths should be NaN")
	}
	if !math.IsNaN(MSE(nil, nil)) {
		t.Fatal("MSE(nil,nil) should be NaN")
	}
}

func TestAutoCorr(t *testing.T) {
	// A strongly persistent series has positive lag-1 autocorrelation.
	persistent := make([]float64, 200)
	x := 0.0
	rng := rand.New(rand.NewSource(2))
	for i := range persistent {
		x = 0.95*x + rng.NormFloat64()
		persistent[i] = x
	}
	if got := AutoCorr(persistent, 1); !(got > 0.7) {
		t.Fatalf("AR(0.95) lag-1 autocorr = %v, want > 0.7", got)
	}
	// Alternating series has strongly negative lag-1 autocorrelation.
	alt := make([]float64, 100)
	for i := range alt {
		alt[i] = float64(i % 2)
	}
	if got := AutoCorr(alt, 1); !(got < -0.9) {
		t.Fatalf("alternating lag-1 autocorr = %v, want < -0.9", got)
	}
	if got := AutoCorr(alt, 2); !(got > 0.9) {
		t.Fatalf("alternating lag-2 autocorr = %v, want > 0.9", got)
	}
	if !math.IsNaN(AutoCorr(alt, 0)) || !math.IsNaN(AutoCorr(alt, 99)) {
		t.Fatal("out-of-range lags should be NaN")
	}
	if !math.IsNaN(AutoCorr([]float64{3, 3, 3, 3}, 1)) {
		t.Fatal("constant series should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v, want -1/7", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("Min/Max of empty should be NaN")
	}
}
