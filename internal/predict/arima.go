package predict

import (
	"fmt"
	"math"
)

// ARIMA is an autoregressive integrated model AR(p) over a d-times
// differenced series, fitted by conditional least squares. Orders are found
// automatically by AIC over p in [1, MaxP] and d in [0, MaxD], mimicking
// Appendix C's pmdarima auto-search. (The moving-average term is omitted:
// for one-step traffic forecasting, AR+I captures the structure the paper's
// comparison relies on, and CLS keeps the fit exact and dependency-free.)
type ARIMA struct {
	// MaxP and MaxD bound the order search.
	MaxP, MaxD int

	p, d  int
	coef  []float64 // AR coefficients, coef[0] is lag-1; last entry intercept
	hist  []float64
	valid bool
}

// NewARIMA returns an auto-order ARIMA predictor with the given search
// bounds (the paper's setup is well covered by MaxP=4, MaxD=1).
func NewARIMA(maxP, maxD int) *ARIMA {
	if maxP < 1 {
		maxP = 1
	}
	if maxD < 0 {
		maxD = 0
	}
	return &ARIMA{MaxP: maxP, MaxD: maxD}
}

// Name implements Predictor.
func (a *ARIMA) Name() string { return fmt.Sprintf("arima(maxp=%d,maxd=%d)", a.MaxP, a.MaxD) }

// Fit implements Predictor: search (p, d) by AIC and keep the best CLS fit.
func (a *ARIMA) Fit(history []float64) {
	a.hist = append(a.hist[:0], history...)
	a.valid = false
	bestAIC := math.Inf(1)
	for d := 0; d <= a.MaxD; d++ {
		diffed := difference(history, d)
		for p := 1; p <= a.MaxP; p++ {
			if len(diffed) < p+2 {
				continue
			}
			coef, rss, n := fitAR(diffed, p)
			if coef == nil || n <= p+1 {
				continue
			}
			// AIC = n ln(rss/n) + 2k with k = p+1 parameters.
			variance := rss / float64(n)
			if variance <= 0 {
				variance = 1e-300
			}
			aic := float64(n)*math.Log(variance) + 2*float64(p+1)
			if aic < bestAIC {
				bestAIC = aic
				a.p, a.d, a.coef = p, d, coef
				a.valid = true
			}
		}
	}
}

// Predict implements Predictor: forecast the differenced series one step,
// then integrate d times.
func (a *ARIMA) Predict() float64 {
	if !a.valid || len(a.hist) == 0 {
		if len(a.hist) > 0 {
			return clampNonNeg(a.hist[len(a.hist)-1])
		}
		return 0
	}
	diffed := difference(a.hist, a.d)
	if len(diffed) < a.p {
		return clampNonNeg(a.hist[len(a.hist)-1])
	}
	// One-step AR forecast on the differenced series.
	pred := a.coef[a.p] // intercept
	for i := 0; i < a.p; i++ {
		pred += a.coef[i] * diffed[len(diffed)-1-i]
	}
	// Integrate: add back the last values of each differencing level.
	for lvl := a.d - 1; lvl >= 0; lvl-- {
		base := difference(a.hist, lvl)
		pred += base[len(base)-1]
	}
	// Guard against explosive AR roots: a one-step traffic forecast far
	// outside the observed range is never credible.
	var hi float64
	for _, x := range a.hist {
		if x > hi {
			hi = x
		}
	}
	if pred > 1.5*hi {
		pred = 1.5 * hi
	}
	return clampNonNeg(pred)
}

// difference applies d rounds of first differencing.
func difference(xs []float64, d int) []float64 {
	out := append([]float64(nil), xs...)
	for i := 0; i < d; i++ {
		if len(out) < 2 {
			return nil
		}
		next := make([]float64, len(out)-1)
		for j := 1; j < len(out); j++ {
			next[j-1] = out[j] - out[j-1]
		}
		out = next
	}
	return out
}

// fitAR fits x_t = c + sum_i coef_i * x_{t-i} by least squares over all
// conditioning windows. It returns the coefficients (lag order, intercept
// last), the residual sum of squares, and the number of equations.
func fitAR(xs []float64, p int) (coef []float64, rss float64, n int) {
	n = len(xs) - p
	if n <= 0 {
		return nil, 0, 0
	}
	k := p + 1 // p lags + intercept
	// Normal equations: (X'X) beta = X'y.
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	row := make([]float64, k)
	for t := p; t < len(xs); t++ {
		for i := 0; i < p; i++ {
			row[i] = xs[t-1-i]
		}
		row[p] = 1
		y := xs[t]
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y
		}
	}
	coef = solveSPD(xtx, xty)
	if coef == nil {
		return nil, 0, 0
	}
	for t := p; t < len(xs); t++ {
		pred := coef[p]
		for i := 0; i < p; i++ {
			pred += coef[i] * xs[t-1-i]
		}
		r := xs[t] - pred
		rss += r * r
	}
	return coef, rss, n
}

// solveSPD solves Ax = b by Gaussian elimination with partial pivoting and
// a tiny ridge for numerical safety. It returns nil for singular systems.
func solveSPD(a [][]float64, b []float64) []float64 {
	k := len(b)
	// Work on copies with ridge regularization.
	m := make([][]float64, k)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
		m[i][i] += 1e-9 * (1 + math.Abs(a[i][i]))
	}
	x := append([]float64(nil), b...)
	for col := 0; col < k; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < k; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := k - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < k; c++ {
			s -= m[col][c] * x[c]
		}
		x[col] = s / m[col][col]
	}
	return x
}
