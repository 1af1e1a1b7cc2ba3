package workload

import (
	"math"

	"ebslab/internal/xrand"
)

// Stream tags for xrand.SubSeed. Each family of random draws gets its own tag so
// streams are mutually independent.
const (
	tagFleet     uint64 = 0xF1EE7
	tagVDModel   uint64 = 0x5E11E
	tagVDSeries  uint64 = 0x7A5C1
	tagEvents    uint64 = 0xE7E57
	tagPlacement uint64 = 0x91ACE
)

// acquireRand returns the derived stream (master, tag, entity) through the
// pooled seed-mirroring source: the stream of
// rand.New(rand.NewSource(xrand.SubSeed(master, tag, entity))), drawn
// without interface dispatch and seeded in closed form with zero
// allocations. Every stream in the package is one of these; Release it when
// the stream is done.
func acquireRand(master int64, tag, entity uint64) *xrand.Rand {
	return xrand.Get(xrand.SubSeed(master, tag, entity))
}

// permInto writes rand.Perm(n) into buf (grown if needed), replicating the
// stdlib draw-for-draw — including the redundant i=0 Intn(1) call — so the
// RNG stream position after the call is identical.
func permInto(rng *xrand.Rand, n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// lognormal draws exp(N(mu, sigma^2)).
func lognormal(rng *xrand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// zipfWeights returns n weights proportional to 1/rank^s, normalized to sum
// to 1, in rank order (index 0 largest).
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// dirichletLike draws n positive weights summing to 1 whose skew is governed
// by shape: small shape (<1) concentrates mass on few entries; large shape
// approaches uniform. It uses normalized Gamma(shape) variates drawn by the
// Marsaglia-Tsang method.
func dirichletLike(rng *xrand.Rand, n int, shape float64) []float64 {
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = gammaDraw(rng, shape)
		total += w[i]
	}
	if total == 0 {
		// Vanishingly unlikely; fall back to all mass on entry 0.
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// gammaDraw samples Gamma(shape, 1) using Marsaglia & Tsang (2000); for
// shape < 1 it uses the boosting transform.
func gammaDraw(rng *xrand.Rand, shape float64) float64 {
	if shape <= 0 {
		panic("workload: gammaDraw needs positive shape")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^{1/a}
		u := rng.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// pickWeighted returns an index into weights drawn proportionally to the
// weights (which need not be normalized but must be non-negative with a
// positive sum).
func pickWeighted(rng *xrand.Rand, weights []float64) int {
	return pickWeightedTotal(rng, weights, sumWeights(weights))
}

// sumWeights sums left to right — the exact accumulation pickWeighted
// performs, so hot loops can hoist the total without changing any draw.
func sumWeights(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	return total
}

// pickWeightedTotal is pickWeighted with the weight total precomputed (it
// must equal sumWeights(weights) bit for bit).
func pickWeightedTotal(rng *xrand.Rand, weights []float64, total float64) int {
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
