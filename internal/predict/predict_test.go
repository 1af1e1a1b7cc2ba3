package predict

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// linearSeries is y = 3 + 2t.
func linearSeries(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 3 + 2*float64(i)
	}
	return out
}

// ar1Series generates x_t = 0.8 x_{t-1} + noise around a level.
func ar1Series(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	x := 10.0
	for i := range out {
		x = 2 + 0.8*x + 0.5*rng.NormFloat64()
		out[i] = x
	}
	return out
}

func TestNaive(t *testing.T) {
	var n Naive
	if err := n.Fit([]float64{1, 2, 7}); err != nil {
		t.Fatal(err)
	}
	if n.Predict() != 7 {
		t.Fatalf("naive = %v, want 7", n.Predict())
	}
	n.Fit(nil)
	if n.Predict() != 0 {
		t.Fatal("naive on empty history should be 0")
	}
	if n.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestLinearFitExact(t *testing.T) {
	lf := NewLinearFit(4)
	series := linearSeries(10)
	if err := lf.Fit(series); err != nil {
		t.Fatal(err)
	}
	want := 3 + 2*float64(10)
	if got := lf.Predict(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("linear predict = %v, want %v", got, want)
	}
}

func TestLinearFitShortHistory(t *testing.T) {
	lf := NewLinearFit(4)
	lf.Fit([]float64{5})
	if got := lf.Predict(); got != 5 {
		t.Fatalf("singleton history predict = %v, want 5", got)
	}
	lf.Fit(nil)
	if got := lf.Predict(); got != 0 {
		t.Fatalf("empty history predict = %v, want 0", got)
	}
}

func TestLinearFitClampsNegative(t *testing.T) {
	lf := NewLinearFit(4)
	lf.Fit([]float64{30, 20, 10, 0})
	if got := lf.Predict(); got != 0 {
		t.Fatalf("downward trend should clamp at 0, got %v", got)
	}
}

func TestNewLinearFitFloorsWindow(t *testing.T) {
	if NewLinearFit(0).Window != 2 {
		t.Fatal("window floor not applied")
	}
}

func TestARIMARecoversAR1(t *testing.T) {
	series := ar1Series(400, 1)
	a := NewARIMA(4, 1)
	if err := a.Fit(series); err != nil {
		t.Fatal(err)
	}
	// One-step forecasts should beat the naive random walk on an AR(1).
	resA, err := Evaluate(NewARIMA(4, 1), series, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	resN, err := Evaluate(&Naive{}, series, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resA.MSE >= resN.MSE {
		t.Fatalf("ARIMA MSE %v not below naive %v on AR(1)", resA.MSE, resN.MSE)
	}
}

func TestARIMAHandlesTrend(t *testing.T) {
	// A pure trend needs differencing; with d=1 allowed the forecast should
	// track closely.
	series := linearSeries(60)
	a := NewARIMA(3, 1)
	a.Fit(series)
	want := 3 + 2*float64(60)
	if got := a.Predict(); math.Abs(got-want) > 1.0 {
		t.Fatalf("trend forecast = %v, want ~%v", got, want)
	}
}

func TestARIMAShortHistory(t *testing.T) {
	a := NewARIMA(4, 1)
	a.Fit([]float64{5, 6})
	if got := a.Predict(); math.IsNaN(got) {
		t.Fatal("short-history forecast is NaN")
	}
	a.Fit(nil)
	if got := a.Predict(); got != 0 {
		t.Fatalf("empty forecast = %v", got)
	}
}

func TestDifference(t *testing.T) {
	xs := []float64{1, 3, 6, 10}
	d1 := difference(xs, 1)
	want := []float64{2, 3, 4}
	for i := range want {
		if d1[i] != want[i] {
			t.Fatalf("d1 = %v", d1)
		}
	}
	d2 := difference(xs, 2)
	if len(d2) != 2 || d2[0] != 1 || d2[1] != 1 {
		t.Fatalf("d2 = %v", d2)
	}
	if difference([]float64{1}, 1) != nil {
		t.Fatal("over-differencing should be nil")
	}
	d0 := difference(xs, 0)
	if len(d0) != 4 {
		t.Fatal("d0 should copy input")
	}
}

func TestSolveSPD(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x := solveSPD(a, b)
	if x == nil || math.Abs(x[0]-1) > 1e-6 || math.Abs(x[1]-3) > 1e-6 {
		t.Fatalf("solveSPD = %v", x)
	}
	// Singular (up to ridge) system still returns something finite or nil.
	s := solveSPD([][]float64{{0, 0}, {0, 0}}, []float64{1, 1})
	if s != nil {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("singular solve returned non-finite %v", s)
			}
		}
	}
}

func TestGBTLearnsSwitchingPattern(t *testing.T) {
	// A deterministic regime pattern that lag features capture but a naive
	// forecaster cannot: x alternates 0,0,10 cyclically.
	series := make([]float64, 240)
	for i := range series {
		if i%3 == 2 {
			series[i] = 10
		}
	}
	resG, err := Evaluate(NewGBT(4, 60, 3, 0.1), series, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	resN, _ := Evaluate(&Naive{}, series, 60, 1)
	if resG.MSE >= resN.MSE/4 {
		t.Fatalf("GBT MSE %v should be far below naive %v on periodic pattern", resG.MSE, resN.MSE)
	}
}

func TestGBTShortHistory(t *testing.T) {
	g := NewGBT(4, 10, 2, 0.1)
	g.Fit([]float64{7})
	if got := g.Predict(); got != 7 {
		t.Fatalf("short history predict = %v, want 7", got)
	}
	g.Fit(nil)
	if g.Predict() != 0 {
		t.Fatal("empty history should predict 0")
	}
}

func TestGBTDefaults(t *testing.T) {
	g := NewGBT(0, 0, 0, 0)
	if g.Lags != 4 || g.Trees != 60 || g.Depth != 3 || g.LearningRate != 0.1 {
		t.Fatalf("defaults = %+v", g)
	}
}

func TestAttentionLearnsRepeatedMotif(t *testing.T) {
	// Period-5 motif; attention should retrieve the matching past windows.
	motif := []float64{1, 4, 9, 2, 7}
	series := make([]float64, 300)
	for i := range series {
		series[i] = motif[i%5]
	}
	resA, err := Evaluate(NewAttention(4, 0), series, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resA.MSE > 0.5 {
		t.Fatalf("attention MSE %v too high on exact motif", resA.MSE)
	}
}

func TestAttentionStaleFitMissesRegimeShift(t *testing.T) {
	// Regime shifts halfway; a per-epoch (stale) fit must do worse than a
	// per-period fit — the Figure 4(c) P4 vs P5 effect.
	rng := rand.New(rand.NewSource(42))
	series := make([]float64, 400)
	for i := range series {
		base := 5.0
		if i >= 200 {
			base = 50
		}
		series[i] = base + rng.Float64()
	}
	fresh, err := Evaluate(NewAttention(4, 0), series, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := Evaluate(NewAttention(4, 0), series, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.MSE >= stale.MSE {
		t.Fatalf("per-period MSE %v should beat per-epoch MSE %v", fresh.MSE, stale.MSE)
	}
}

func TestAttentionShortHistory(t *testing.T) {
	a := NewAttention(4, 16)
	a.Fit([]float64{3})
	if got := a.Predict(); got != 3 {
		t.Fatalf("short predict = %v, want 3", got)
	}
	a.Fit(nil)
	if a.Predict() != 0 {
		t.Fatal("empty predict should be 0")
	}
}

func TestAttentionCorpusCap(t *testing.T) {
	a := NewAttention(2, 8)
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i)
	}
	a.Fit(series)
	if len(a.keys) != 8 {
		t.Fatalf("corpus size %d, want cap 8", len(a.keys))
	}
}

func TestEvaluateValidation(t *testing.T) {
	series := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		name       string
		series     []float64
		warmup     int
		refitEvery int
		wantErr    string // substring of the error, "" = must succeed
	}{
		{"warmup zero", series, 0, 1, "warmup 0"},
		{"warmup one", series, 1, 1, "warmup 1"},
		{"warmup negative", series, -3, 1, "warmup -3"},
		{"warmup == len", series, 5, 1, "leaves no steps"},
		{"warmup past end", series, 9, 1, "leaves no steps"},
		{"refit zero", series, 2, 0, "refitEvery 0"},
		{"refit negative", series, 2, -2, "refitEvery -2"},
		{"valid", series, 2, 1, ""},
		{"valid stale refits", series, 2, 3, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Evaluate(&Naive{}, tc.series, tc.warmup, tc.refitEvery)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("Evaluate(warmup=%d, refitEvery=%d) accepted", tc.warmup, tc.refitEvery)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Preds) != 3 || len(res.Truth) != 3 {
				t.Fatalf("evaluation lengths: %d/%d", len(res.Preds), len(res.Truth))
			}
			// Naive on 1..5 refit each step: each prediction is the
			// previous value, error 1 each (stale refits drift further).
			if tc.refitEvery == 1 && math.Abs(res.MSE-1) > 1e-12 {
				t.Fatalf("naive MSE = %v, want 1", res.MSE)
			}
		})
	}
}

func TestPredictorNames(t *testing.T) {
	for _, p := range []Predictor{
		NewLinearFit(4), NewARIMA(4, 1), NewGBT(4, 10, 2, 0.1), NewAttention(4, 64), &Naive{},
	} {
		if p.Name() == "" {
			t.Fatalf("%T has empty name", p)
		}
	}
}

func TestClampNonNeg(t *testing.T) {
	if clampNonNeg(-1) != 0 || clampNonNeg(math.NaN()) != 0 || clampNonNeg(math.Inf(1)) != 0 {
		t.Fatal("clamp failed")
	}
	if clampNonNeg(3) != 3 {
		t.Fatal("clamp altered valid value")
	}
}

func TestWindowPadding(t *testing.T) {
	w := window([]float64{1, 2, 3}, 2, 4)
	// Values preceding index 2, most recent first: 2, 1, pad, pad.
	if w[0] != 2 || w[1] != 1 || w[2] != 0 || w[3] != 0 {
		t.Fatalf("window = %v", w)
	}
}

// peeker forecasts the last value it can reach from its history: as far as
// the slice's capacity goes, not its length.
type peeker struct{ next float64 }

func (p *peeker) Name() string { return "peeker" }

func (p *peeker) Fit(history []float64) error {
	p.next = 0
	if all := history[:cap(history)]; len(all) > 0 {
		p.next = all[len(all)-1]
	}
	return nil
}

func (p *peeker) Predict() float64 { return p.next }

// TestEvaluateIsCausal is the walk-forward protocol's look-ahead law: the
// forecast of step s may read series[:s] only, so poisoning series[t:] must
// leave the forecasts of steps up to t bit-identical, for every predictor
// family. The peeker reads its history up to the slice's capacity; it keeps
// the law only because Evaluate hands every fit a history whose capacity
// ends where its length does.
func TestEvaluateIsCausal(t *testing.T) {
	const warmup, refitEvery = 20, 3
	series := ar1Series(80, 3)
	families := []func() Predictor{
		func() Predictor { return &Naive{} },
		func() Predictor { return &EWMA{} },
		func() Predictor { return NewHolt() },
		func() Predictor { return NewLinearFit(5) },
		func() Predictor { return NewARIMA(2, 1) },
		func() Predictor { return NewGBT(4, 8, 2, 0.3) },
		func() Predictor { return NewAttention(4, 16) },
		func() Predictor { return &peeker{} },
	}
	for _, family := range families {
		clean, err := Evaluate(family(), series, warmup, refitEvery)
		if err != nil {
			t.Fatal(err)
		}
		name := family().Name()
		for _, cut := range []int{warmup, 47, len(series) - 1} {
			poisoned := slices.Clone(series)
			for i := cut; i < len(poisoned); i++ {
				poisoned[i] = 1e6 * float64(i+1)
			}
			got, err := Evaluate(family(), poisoned, warmup, refitEvery)
			if err != nil {
				t.Fatalf("%s, series poisoned from %d: %v", name, cut, err)
			}
			for s := warmup; s <= cut; s++ {
				if a, b := got.Preds[s-warmup], clean.Preds[s-warmup]; math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: poisoning the series from step %d moved the forecast of step %d from %v to %v", name, cut, s, b, a)
					break
				}
			}
		}
	}
}
