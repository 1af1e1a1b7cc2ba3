// Package stats implements the descriptive statistics used throughout the
// EBS traffic study: cumulative contribution rate (CCR), peak-to-average
// ratio (P2A), the normalized coefficient of variation (CoV), quantiles,
// histograms, mean squared error, and the normalized write-to-read ratio.
//
// All functions operate on plain float64 slices and never mutate their
// arguments unless documented otherwise. NaN results indicate an undefined
// statistic (for example the CoV of an all-zero series); callers are expected
// to filter with math.IsNaN where relevant.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN for an empty slice.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CoV returns the raw coefficient of variation sigma/mu of xs.
// It returns NaN when xs is empty or its mean is zero.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) || m == 0 {
		return math.NaN()
	}
	return StdDev(xs) / m
}

// NormCoV returns the normalized coefficient of variation used by the paper
// (§4.1): the raw CoV divided by its maximum attainable value sqrt(n-1) for n
// non-negative samples, so the result lies in [0, 1]. A value of 1 means all
// traffic concentrates on a single element; 0 means perfectly even.
//
// NormCoV returns NaN for fewer than two samples or a zero mean.
func NormCoV(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	c := CoV(xs)
	if math.IsNaN(c) {
		return math.NaN()
	}
	return c / math.Sqrt(float64(n-1))
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// P2A returns the peak-to-average ratio of a time series: max(xs)/mean(xs).
// The paper (§3.1) uses P2A to quantify temporal burstiness. It returns NaN
// for an empty series or a zero mean.
func P2A(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) || m == 0 {
		return math.NaN()
	}
	return Max(xs) / m
}

// CCR returns the cumulative contribution rate: the fraction of total mass
// contributed by the top `frac` (0 < frac <= 1) share of elements, e.g.
// CCR(traffic, 0.01) is the paper's "1%-CCR". Elements are ranked in
// descending order. At least one element is always counted when frac > 0.
// It returns NaN for an empty slice, a non-positive total, or frac outside
// (0, 1].
func CCR(xs []float64, frac float64) float64 {
	if len(xs) == 0 || frac <= 0 || frac > 1 {
		return math.NaN()
	}
	total := Sum(xs)
	if total <= 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	k := int(math.Ceil(frac * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return Sum(sorted[:k]) / total
}

// WrRatio returns the normalized write-to-read ratio (Equation 2 of the
// paper): (W-R)/(W+R), in [-1, 1]. +1 is pure write, -1 pure read. It
// returns NaN when both W and R are zero.
func WrRatio(write, read float64) float64 {
	if write+read == 0 {
		return math.NaN()
	}
	return (write - read) / (write + read)
}

// MSE returns the mean squared error between predictions and truth. The two
// slices must have equal, non-zero length; otherwise MSE returns NaN.
func MSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	var ss float64
	for i := range pred {
		d := pred[i] - truth[i]
		ss += d * d
	}
	return ss / float64(len(pred))
}

// AutoCorr returns the lag-k autocorrelation of xs (the normalized
// autocovariance), or NaN for k outside [1, len(xs)-2] or a constant
// series. Traffic predictors only help where this is meaningfully positive.
func AutoCorr(xs []float64, k int) float64 {
	n := len(xs)
	if k < 1 || k > n-2 {
		return math.NaN()
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
		if i+k < n {
			num += d * (xs[i+k] - m)
		}
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
