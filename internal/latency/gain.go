package latency

import (
	"math"

	"ebslab/internal/cache"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
	"ebslab/internal/xrand"
)

// GainResult compares an IO population's latency with and without a cache
// at one location (Figure 7b/c): the latency gain at a percentile is
// pX(with)/pX(without), in (0, 1]; smaller is better.
type GainResult struct {
	Op trace.Op
	// Gain at the 0th, 50th and 99th percentiles, as the paper reports.
	P0, P50, P99 float64
	// HitRatio of the cache over the replayed accesses of this op.
	HitRatio float64
	Count    int
}

// EvaluateGain replays accesses through a frozen cache at the given
// location and measures per-op latency gains. hotOffset/hotLen position the
// frozen cache.
func EvaluateGain(m *Model, accesses []cache.Access, hotOffset, hotLen int64, loc CacheLocation, seed int64) []GainResult {
	frozen := cache.NewFrozen(hotOffset, hotLen)
	return evaluate(m, accesses, seed, func(a cache.Access) (CacheLocation, bool) {
		return loc, covers(frozen, a)
	})
}

// EvaluateHybridGain evaluates the hybrid deployment §7.3.2 proposes as the
// cost-benefit compromise: a small CN-cache holds the hottest cnFrac of the
// hot range (fast path, skips the whole storage cluster) and a BS-cache
// backs the full hot range (catches what the CN-cache cannot hold). An IO
// is served at the nearest level that covers it.
func EvaluateHybridGain(m *Model, accesses []cache.Access, hotOffset, hotLen int64, cnFrac float64, seed int64) []GainResult {
	if cnFrac <= 0 {
		cnFrac = 0.25
	}
	if cnFrac > 1 {
		cnFrac = 1
	}
	cnLen := int64(float64(hotLen) * cnFrac)
	if cnLen < cache.PageSize {
		cnLen = cache.PageSize
	}
	cn := cache.NewFrozen(hotOffset, cnLen)
	bs := cache.NewFrozen(hotOffset, hotLen)
	return evaluate(m, accesses, seed, func(a cache.Access) (CacheLocation, bool) {
		switch {
		case covers(cn, a):
			return CNCache, true
		case covers(bs, a):
			return BSCache, true
		}
		return NoCache, false
	})
}

// evaluate replays accesses, asking serve where each IO is served and
// whether it hits, and reports per-op gains. Each IO draws its stage vector
// once, on its own stream seeded from the run's, and served derives the
// cached latency from that same draw, so gains isolate the cache effect
// rather than sampling noise.
func evaluate(m *Model, accesses []cache.Access, seed int64, serve func(cache.Access) (CacheLocation, bool)) []GainResult {
	type bucket struct {
		with, without []float64
		hits          int
	}
	buckets := map[trace.Op]*bucket{trace.OpRead: {}, trace.OpWrite: {}}
	tab := m.Compile()
	rng := xrand.Get(seed)
	defer rng.Release()
	var lat [trace.NumStages]float32
	for _, a := range accesses {
		op := trace.OpRead
		if a.Write {
			op = trace.OpWrite
		}
		loc, hit := serve(a)
		b := buckets[op]
		if hit {
			b.hits++
		}
		sub := xrand.Get(rng.Int63())
		tab.SampleInto(sub.Rand, op, a.Size, &lat)
		sub.Release()
		b.without = append(b.without, Total(lat))
		b.with = append(b.with, Total(served(lat, loc, hit)))
	}
	var out []GainResult
	for _, op := range []trace.Op{trace.OpRead, trace.OpWrite} {
		b := buckets[op]
		res := GainResult{Op: op, Count: len(b.with)}
		if res.Count == 0 {
			res.P0, res.P50, res.P99, res.HitRatio = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		} else {
			res.HitRatio = float64(b.hits) / float64(res.Count)
			w := stats.Quantiles(b.with, 0, 0.5, 0.99)
			wo := stats.Quantiles(b.without, 0, 0.5, 0.99)
			res.P0, res.P50, res.P99 = ratio(w[0], wo[0]), ratio(w[1], wo[1]), ratio(w[2], wo[2])
		}
		out = append(out, res)
	}
	return out
}

// covers reports a whole-IO hit: every page a touches lies in the frozen
// range.
func covers(f *cache.Frozen, a cache.Access) bool {
	first, last := a.Pages()
	for p := first; p <= last; p++ {
		if !f.Touch(p) {
			return false
		}
	}
	return true
}

// ratio is one quantile's gain: the cached latency over the uncached, NaN
// when either is NaN or the uncached one is zero.
func ratio(w, wo float64) float64 {
	if wo == 0 || math.IsNaN(w) || math.IsNaN(wo) {
		return math.NaN()
	}
	return w / wo
}

// CountCacheablePerNode implements Fig 7(d)'s provisioning metric: given
// each VD's hosting node (compute node for CN-cache, BlockServer of its
// hottest segment for BS-cache) and whether the VD is cacheable (hottest
// block access rate above the threshold), it returns the number of
// cacheable VDs per node. A wider spread means worse space utilization for
// uniformly-sized caches.
func CountCacheablePerNode(nodeOf []int, cacheable []bool, nNodes int) []int {
	counts := make([]int, nNodes)
	for i, n := range nodeOf {
		if n < 0 || n >= nNodes || !cacheable[i] {
			continue
		}
		counts[n]++
	}
	return counts
}
