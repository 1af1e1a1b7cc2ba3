package predict

import (
	"math"
	"testing"
)

func TestHoltTracksTrend(t *testing.T) {
	series := linearSeries(80) // 3 + 2t
	h := NewHolt()
	h.Fit(series)
	want := 3 + 2*float64(80)
	got := h.Predict()
	if math.Abs(got-want) > 8 {
		t.Fatalf("holt trend forecast = %v, want ~%v", got, want)
	}
}

func TestHoltShortHistory(t *testing.T) {
	h := NewHolt()
	h.Fit([]float64{5})
	if got := h.Predict(); got != 5 {
		t.Fatalf("singleton predict = %v", got)
	}
	h.Fit(nil)
	if h.Predict() != 0 {
		t.Fatal("empty history should predict 0")
	}
}

func TestHoltClampsExplosiveForecast(t *testing.T) {
	h := NewHolt()
	// Steep ramp: the trend extrapolation is clamped at 1.5x the max.
	h.Fit([]float64{0, 0, 0, 100})
	if got := h.Predict(); got > 150+1e-9 {
		t.Fatalf("forecast %v above clamp", got)
	}
}

func TestHoltPinnedParameters(t *testing.T) {
	h := &Holt{Alpha: 0.5, Beta: 0.1}
	series := ar1Series(100, 3)
	h.Fit(series)
	if math.IsNaN(h.Predict()) {
		t.Fatal("NaN forecast")
	}
}

func TestHoltBeatsNaiveOnTrend(t *testing.T) {
	series := make([]float64, 120)
	for i := range series {
		series[i] = float64(i) * 3
	}
	resH, err := Evaluate(NewHolt(), series, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	resN, _ := Evaluate(&Naive{}, series, 20, 1)
	if !(resH.MSE < resN.MSE) {
		t.Fatalf("holt MSE %v not below naive %v on a pure trend", resH.MSE, resN.MSE)
	}
}

func TestEWMA(t *testing.T) {
	e := &EWMA{}
	if e.Name() == "" {
		t.Fatal("empty name")
	}
	e.Fit([]float64{10, 10, 10})
	if got := e.Predict(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("constant series EWMA = %v", got)
	}
	e.Fit(nil)
	if e.Predict() != 0 {
		t.Fatal("empty EWMA should predict 0")
	}
	// Alpha clamping.
	bad := &EWMA{Alpha: 5}
	if bad.alpha() != 0.3 {
		t.Fatalf("alpha fallback = %v", bad.alpha())
	}
	// Smoother than naive on noise around a level.
	series := ar1Series(300, 5)
	resE, err := Evaluate(&EWMA{Alpha: 0.3}, series, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(resE.MSE) {
		t.Fatal("NaN MSE")
	}
}
