package predict

import (
	"fmt"
	"math"
)

// Attention is a softmax attention regressor — the stdlib-only stand-in for
// Appendix C's PyTorch Transformer. The query is the current lag window;
// keys are every historical lag window; values are the observations that
// followed them. The forecast is the softmax-weighted average of the
// values,
//
//	pred = sum_i softmax(-||q - k_i||^2 / (tau * s^2 * sqrt(d)))_i * v_i
//
// i.e. one attention head whose compatibility function is the RBF kernel
// (squared distance) rather than a learned-projection dot product — with
// identity projections, distance is the retrieval-correct score. The
// temperature tau is the single trained parameter, chosen by leave-one-out
// grid search during Fit. Like the paper's Transformer, the model memorizes
// the training corpus at fit time, so a stale per-epoch fit cannot see
// recent regime shifts — reproducing the P4-vs-P5 cadence effect of
// Figure 4(c).
type Attention struct {
	// Lags is the window length of queries and keys.
	Lags int
	// MaxKeys caps the memorized corpus (most recent windows win).
	MaxKeys int

	tau     float64
	keys    [][]float64
	vals    []float64
	norm    float64 // feature scale used to normalize dot products
	lastWin []float64
	fallbck float64
}

// NewAttention returns an attention regressor with the given window (4 if
// non-positive) and corpus cap (512 if non-positive).
func NewAttention(lags, maxKeys int) *Attention {
	if lags <= 0 {
		lags = 4
	}
	if maxKeys <= 0 {
		maxKeys = 512
	}
	return &Attention{Lags: lags, MaxKeys: maxKeys}
}

// Name implements Predictor.
func (a *Attention) Name() string { return fmt.Sprintf("attention(lags=%d)", a.Lags) }

// Fit implements Predictor: memorize (window, next) pairs and tune tau.
func (a *Attention) Fit(history []float64) {
	a.keys = a.keys[:0]
	a.vals = a.vals[:0]
	a.lastWin = nil
	a.fallbck = 0
	if len(history) > 0 {
		a.fallbck = history[len(history)-1]
		a.lastWin = window(history, len(history), a.Lags)
	}
	n := len(history) - a.Lags
	if n <= 1 {
		return
	}
	start := 0
	if n > a.MaxKeys {
		start = n - a.MaxKeys
	}
	var scale float64
	for t := start; t < n; t++ {
		k := window(history, t+a.Lags, a.Lags)
		a.keys = append(a.keys, k)
		a.vals = append(a.vals, history[t+a.Lags])
		for _, x := range k {
			scale += x * x
		}
	}
	a.norm = math.Sqrt(scale/float64(len(a.keys))) + 1e-12
	// Grid-search tau by leave-one-out error on the memorized corpus.
	best, bestErr := 1.0, math.Inf(1)
	for _, tau := range []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2, 4} {
		var sse float64
		for i := range a.keys {
			pred := a.attend(a.keys[i], tau, i)
			d := pred - a.vals[i]
			sse += d * d
		}
		if sse < bestErr {
			best, bestErr = tau, sse
		}
	}
	a.tau = best
}

// Predict implements Predictor.
func (a *Attention) Predict() float64 {
	if len(a.keys) == 0 || a.lastWin == nil {
		return clampNonNeg(a.fallbck)
	}
	return clampNonNeg(a.attend(a.lastWin, a.tau, -1))
}

// attend computes the softmax-weighted value average for query q, excluding
// corpus index skip (for leave-one-out tuning; pass -1 to use everything).
func (a *Attention) attend(q []float64, tau float64, skip int) float64 {
	d := math.Sqrt(float64(a.Lags))
	// Normalize scores by the corpus feature scale so tau is unitless.
	denom := tau * d * a.norm * a.norm
	if denom == 0 {
		denom = 1
	}
	maxScore := math.Inf(-1)
	scores := make([]float64, len(a.keys))
	for i, k := range a.keys {
		if i == skip {
			scores[i] = math.Inf(-1)
			continue
		}
		var dist float64
		for j := range k {
			d := q[j] - k[j]
			dist += d * d
		}
		scores[i] = -dist / denom
		if scores[i] > maxScore {
			maxScore = scores[i]
		}
	}
	if math.IsInf(maxScore, -1) {
		return a.fallbck
	}
	var wsum, vsum float64
	for i, s := range scores {
		if math.IsInf(s, -1) {
			continue
		}
		w := math.Exp(s - maxScore)
		wsum += w
		vsum += w * a.vals[i]
	}
	if wsum == 0 {
		return a.fallbck
	}
	return vsum / wsum
}

// window returns the Lags values preceding index end (end exclusive),
// most-recent first, zero-padded on underflow.
func window(xs []float64, end, lags int) []float64 {
	w := make([]float64, lags)
	for i := 0; i < lags; i++ {
		j := end - 1 - i
		if j >= 0 {
			w[i] = xs[j]
		}
	}
	return w
}
