// Package predict implements the traffic-prediction methods the paper
// evaluates for the inter-BS balancer (§6.1.3, Appendix C): a linear fit
// over the last few periods, an ARIMA model with automatic order search,
// gradient-boosted regression trees over lag features (the XGBoost
// stand-in), and a dot-product attention regressor (the Transformer
// stand-in). All are written from scratch on the standard library.
//
// The Evaluate driver walks a series one period at a time, refitting each
// model on its own cadence — per period for the statistical models, per
// epoch (every 200 periods in the paper) for the learned ones — and scores
// one-step-ahead forecasts by mean squared error, which is exactly the
// Figure 4(c) protocol.
package predict

import (
	"fmt"
	"math"

	"ebslab/internal/stats"
)

// Predictor is a one-step-ahead forecaster. Fit may be called repeatedly
// with growing history; Predict forecasts the value following the last
// fitted point.
type Predictor interface {
	// Name identifies the method in reports.
	Name() string
	// Fit trains on history, oldest first. Implementations must tolerate
	// short histories (falling back to naive forecasts).
	Fit(history []float64) error
	// Predict returns the forecast for the next step.
	Predict() float64
}

// EvalResult reports a walk-forward evaluation.
type EvalResult struct {
	Preds []float64 // predictions for steps [warmup, len(series))
	Truth []float64
	MSE   float64
	// NormMSE is MSE divided by the variance of the evaluated truth, so
	// methods can be compared across series scales (1.0 = as bad as
	// predicting the mean).
	NormMSE float64
}

// Evaluate runs walk-forward validation: for each t in [warmup, len(series)),
// the predictor is fitted on series[:t] — but only every refitEvery steps
// (stale fits emulate the paper's per-epoch retraining) — and asked for a
// one-step forecast of series[t].
func Evaluate(p Predictor, series []float64, warmup, refitEvery int) (EvalResult, error) {
	if warmup < 2 {
		return EvalResult{}, fmt.Errorf("predict: warmup %d, want >= 2 (a forecaster needs at least two points of history)", warmup)
	}
	if warmup >= len(series) {
		return EvalResult{}, fmt.Errorf("predict: warmup %d leaves no steps to evaluate in a %d-point series, want warmup < len(series)", warmup, len(series))
	}
	if refitEvery < 1 {
		return EvalResult{}, fmt.Errorf("predict: refitEvery %d, want >= 1 (the fit cadence in steps)", refitEvery)
	}
	var res EvalResult
	lastFit := -1
	for t := warmup; t < len(series); t++ {
		if lastFit < 0 || t-lastFit >= refitEvery {
			// The history's capacity ends at t too, so no predictor can
			// reach the steps it is about to forecast.
			if err := p.Fit(series[:t:t]); err != nil {
				return EvalResult{}, fmt.Errorf("predict: fit %s at %d: %w", p.Name(), t, err)
			}
			lastFit = t
		}
		res.Preds = append(res.Preds, p.Predict())
		res.Truth = append(res.Truth, series[t])
	}
	res.MSE = stats.MSE(res.Preds, res.Truth)
	if v := stats.Variance(res.Truth); v > 0 {
		res.NormMSE = res.MSE / v
	} else {
		res.NormMSE = math.NaN()
	}
	return res, nil
}

// Naive predicts the last observed value (random-walk baseline).
type Naive struct {
	last float64
}

// Name implements Predictor.
func (n *Naive) Name() string { return "naive" }

// Fit implements Predictor.
func (n *Naive) Fit(history []float64) error {
	if len(history) == 0 {
		n.last = 0
		return nil
	}
	n.last = history[len(history)-1]
	return nil
}

// Predict implements Predictor.
func (n *Naive) Predict() float64 { return n.last }

// clampNonNeg replaces negative or non-finite forecasts with a floor of 0;
// traffic cannot be negative.
func clampNonNeg(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		return 0
	}
	return x
}
