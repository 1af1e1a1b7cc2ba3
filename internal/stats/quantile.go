package stats

import (
	"math"
	"math/bits"
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

// Quantiles returns Quantile(xs, q) for each q of qs. It orders one copy of
// xs (none when no q needs it) only as far as the order statistics its qs
// read: a selection of those ranks, not a sort. The k-th order statistic
// has one value however it is found, so every result equals the one a
// sorted copy gives (NaNs order first, as sort.Float64s puts them; -0 and
// +0 are equal, so either may stand at a rank).
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	var ranks []int
	for _, q := range qs {
		if len(xs) > 0 && q >= 0 && q <= 1 {
			lo, hi, _ := quantileRanks(len(xs), q)
			ranks = append(ranks, lo, hi)
		}
	}
	var ordered []float64
	if len(ranks) > 0 {
		ordered = append([]float64(nil), xs...)
		sort.Ints(ranks)
		selectRanks(ordered, ranks)
	}
	for i, q := range qs {
		if len(xs) == 0 || !(q >= 0 && q <= 1) {
			out[i] = math.NaN()
			continue
		}
		lo, hi, w := quantileRanks(len(xs), q)
		if lo == hi {
			out[i] = ordered[lo]
		} else {
			out[i] = ordered[lo]*(1-w) + ordered[hi]*w
		}
	}
	return out
}

// quantileRanks returns the order statistics the q-quantile of n values
// interpolates between and the weight of the upper one.
func quantileRanks(n int, q float64) (lo, hi int, w float64) {
	if n == 1 {
		return 0, 0, 0
	}
	pos := q * float64(n-1)
	lo, hi = int(math.Floor(pos)), int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// selectRanks permutes a so that a[k] holds its k-th order statistic for
// every k of ranks (ascending), with the NaNs first.
func selectRanks(a []float64, ranks []int) {
	from := 0
	for i, x := range a {
		if x != x {
			a[i], a[from] = a[from], a[i]
			from++
		}
	}
	// Past the NaNs every comparison is total. Each selection leaves
	// a[k+1:] holding only values >= a[k], so the next rank is selected
	// there.
	for _, k := range ranks {
		if k >= from {
			selectNth(a[from:], k-from)
			from = k + 1
		}
	}
}

// selectNth permutes a (no NaNs) so that a[k] is its k-th order statistic,
// with nothing greater before it and nothing smaller after it. Each round
// splits around a median-of-three pivot three ways, so a run of equal
// values ends it at once; a budget of twice the bit length in rounds falls
// back to a sort, which bounds the worst case at n log n.
func selectNth(a []float64, k int) {
	for budget := 2 * bits.Len(uint(len(a))); len(a) > 1; budget-- {
		if budget == 0 {
			sort.Float64s(a)
			return
		}
		p := median3(a[0], a[len(a)/2], a[len(a)-1])
		// a[:lt] < p, a[lt:gt] == p, a[gt:] > p.
		lt, i, gt := 0, 0, len(a)
		for i < gt {
			switch x := a[i]; {
			case x < p:
				a[lt], a[i] = x, a[lt]
				lt++
				i++
			case x > p:
				gt--
				a[i], a[gt] = a[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			a = a[:lt]
		case k >= gt:
			a, k = a[gt:], k-gt
		default:
			return
		}
	}
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
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
