package xrand

import "math"

// CountFor turns a fractional expected count into an integer count by
// flooring and adding a Bernoulli remainder, preserving the mean. A lambda
// that is zero, negative or NaN returns 0 and draws nothing.
func CountFor(rng *Rand, lambda float64) int {
	if lambda <= 0 || math.IsNaN(lambda) {
		return 0
	}
	n := int(lambda)
	if rng.Float64() < lambda-float64(n) {
		n++
	}
	return n
}

// GeometricAtLeast1 draws a geometric count >= 1 with the given mean,
// capped at 64 against pathological draws. A mean <= 1 returns 1 and draws
// nothing.
func GeometricAtLeast1(rng *Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	// Mean of 1+Geometric(p) is 1 + (1-p)/p = 1/p.
	p := 1 / mean
	n := 1
	for rng.Float64() > p {
		n++
		if n >= 64 {
			break
		}
	}
	return n
}
