package predict

import (
	"fmt"
	"math"
)

// Holt is double exponential smoothing (Holt's linear trend method) — a
// representative of the "standard methods" [23, 45] the paper reports as
// insufficient for EBS traffic prediction. Smoothing parameters are tuned
// by grid search on the training series at every Fit.
type Holt struct {
	// Alpha and Beta, when positive, pin the smoothing parameters;
	// otherwise Fit grid-searches them.
	Alpha, Beta float64

	level, trend float64
	fitted       bool
	maxSeen      float64
}

// NewHolt returns an auto-tuned Holt forecaster.
func NewHolt() *Holt { return &Holt{} }

// Name implements Predictor.
func (h *Holt) Name() string { return "holt" }

// Fit implements Predictor.
func (h *Holt) Fit(history []float64) {
	h.fitted = false
	if len(history) == 0 {
		h.level, h.trend = 0, 0
		return
	}
	h.maxSeen = 0
	for _, x := range history {
		if x > h.maxSeen {
			h.maxSeen = x
		}
	}
	if len(history) < 3 {
		h.level, h.trend = history[len(history)-1], 0
		h.fitted = true
		return
	}
	alphas := []float64{h.Alpha}
	betas := []float64{h.Beta}
	if h.Alpha <= 0 {
		alphas = []float64{0.1, 0.3, 0.5, 0.8}
	}
	if h.Beta <= 0 {
		betas = []float64{0.01, 0.1, 0.3}
	}
	best := math.Inf(1)
	for _, a := range alphas {
		for _, b := range betas {
			level, trend, sse := holtRun(history, a, b)
			if sse < best {
				best = sse
				h.level, h.trend = level, trend
			}
		}
	}
	h.fitted = true
}

// holtRun smooths the series with (alpha, beta) and returns the final level
// and trend plus the one-step-ahead SSE.
func holtRun(xs []float64, alpha, beta float64) (level, trend, sse float64) {
	level = xs[0]
	trend = xs[1] - xs[0]
	for t := 1; t < len(xs); t++ {
		pred := level + trend
		d := xs[t] - pred
		sse += d * d
		newLevel := alpha*xs[t] + (1-alpha)*(level+trend)
		trend = beta*(newLevel-level) + (1-beta)*trend
		level = newLevel
	}
	return level, trend, sse
}

// Predict implements Predictor.
func (h *Holt) Predict() float64 {
	if !h.fitted {
		return 0
	}
	pred := h.level + h.trend
	if h.maxSeen > 0 && pred > 1.5*h.maxSeen {
		pred = 1.5 * h.maxSeen
	}
	return clampNonNeg(pred)
}

// EWMA is single exponential smoothing — the simplest standard baseline.
type EWMA struct {
	// Alpha in (0,1]; 0 selects 0.3.
	Alpha float64
	level float64
}

// Name implements Predictor.
func (e *EWMA) Name() string { return fmt.Sprintf("ewma(%.2f)", e.alpha()) }

func (e *EWMA) alpha() float64 {
	if e.Alpha <= 0 || e.Alpha > 1 {
		return 0.3
	}
	return e.Alpha
}

// Fit implements Predictor.
func (e *EWMA) Fit(history []float64) {
	if len(history) == 0 {
		e.level = 0
		return
	}
	a := e.alpha()
	e.level = history[0]
	for _, x := range history[1:] {
		e.level = a*x + (1-a)*e.level
	}
}

// Predict implements Predictor.
func (e *EWMA) Predict() float64 { return clampNonNeg(e.level) }
