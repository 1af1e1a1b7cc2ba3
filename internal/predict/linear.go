package predict

import "fmt"

// LinearFit forecasts by ordinary least squares over the last Window points
// against their time index, extrapolating one step — Appendix C's
// "LinearRegression ... from the past four migration periods" and the core
// of Lunule's importer selection.
type LinearFit struct {
	// Window is how many trailing points to regress over (4 in the paper).
	Window int

	slope, intercept float64
	n                int // points actually used in the last fit
}

// NewLinearFit returns a linear-fit predictor over the given window.
func NewLinearFit(window int) *LinearFit {
	if window < 2 {
		window = 2
	}
	return &LinearFit{Window: window}
}

// Name implements Predictor.
func (l *LinearFit) Name() string { return fmt.Sprintf("linear-fit(w=%d)", l.Window) }

// Fit implements Predictor.
func (l *LinearFit) Fit(history []float64) {
	w := l.Window
	if len(history) < w {
		w = len(history)
	}
	pts := history[len(history)-w:]
	l.n = len(pts)
	if l.n == 0 {
		l.slope, l.intercept = 0, 0
		return
	}
	if l.n == 1 {
		l.slope, l.intercept = 0, pts[0]
		return
	}
	// OLS of y against x = 0..n-1.
	var sx, sy, sxx, sxy float64
	for i, y := range pts {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(l.n)
	den := n*sxx - sx*sx
	if den == 0 {
		l.slope, l.intercept = 0, sy/n
		return
	}
	l.slope = (n*sxy - sx*sy) / den
	l.intercept = (sy - l.slope*sx) / n
}

// Predict implements Predictor: extrapolate to x = n (one step past the
// window).
func (l *LinearFit) Predict() float64 {
	return clampNonNeg(l.intercept + l.slope*float64(l.n))
}
