package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the "type 7" estimator used by
// numpy and R). It returns NaN for an empty slice or q outside [0,1],
// including q = NaN (which a plain range check would let through into an
// undefined float-to-int conversion).
func Quantile(xs []float64, q float64) float64 {
	return Quantiles(xs, q)[0]
}

// Quantiles returns Quantile(xs, q) for each q of qs, sorting one copy of xs
// for all of them (and none when no q needs it).
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	var sorted []float64
	for i, q := range qs {
		if len(xs) == 0 || !(q >= 0 && q <= 1) {
			out[i] = math.NaN()
			continue
		}
		if sorted == nil {
			sorted = append([]float64(nil), xs...)
			sort.Float64s(sorted)
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// quantileSorted computes the q-quantile of an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	w := pos - float64(lo)
	return sorted[lo]*(1-w) + sorted[hi]*w
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// FractionWhere returns the fraction of samples satisfying pred. It returns
// NaN for an empty slice.
func FractionWhere(xs []float64, pred func(float64) bool) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var c int
	for _, x := range xs {
		if pred(x) {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}

// DropNaN returns xs with NaN values removed (always a fresh slice).
func DropNaN(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}
