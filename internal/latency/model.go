// Package latency models per-IO latency across the five EBS stack
// components the trace dataset records (§2.3): compute node, frontend
// network, BlockServer, backend network, ChunkServer. The model combines a
// per-stage base cost, a size-proportional transfer term, lognormal jitter,
// and a Pareto long tail — enough structure to study where caching helps
// (Figure 7b/c) without pretending to reproduce the authors' testbed
// numbers.
//
// There is one sampler: a Model is compiled into a Table (table.go), which
// the engine draws in batches (SampleBatch) and the cache studies IO by IO
// (SampleInto, in gain.go). A cache hit is derived from the IO's uncached
// draw (served) rather than drawn again.
package latency

import "ebslab/internal/trace"

// StageParams shapes one stage's latency in microseconds.
type StageParams struct {
	BaseUS      float64 // fixed cost
	PerMiBUS    float64 // transfer cost per MiB
	JitterSigma float64 // lognormal sigma on the subtotal
	TailProb    float64 // probability of a long-tail event
	TailScaleUS float64 // Pareto scale of the tail addition
	TailAlpha   float64 // Pareto shape of the tail addition
}

// Model holds per-stage parameters, split by direction where it matters.
type Model struct {
	Read  [trace.NumStages]StageParams
	Write [trace.NumStages]StageParams
}

// Default returns a model calibrated to the common shape of disaggregated
// block stores: network hops tens of microseconds, ChunkServer dominating
// (SSD access plus replication on writes), long tails mostly in the storage
// backend.
func Default() *Model {
	m := &Model{}
	net := StageParams{BaseUS: 25, PerMiBUS: 90, JitterSigma: 0.25, TailProb: 0.005, TailScaleUS: 150, TailAlpha: 1.6}
	m.Read = [trace.NumStages]StageParams{
		trace.StageComputeNode: {BaseUS: 12, PerMiBUS: 25, JitterSigma: 0.2, TailProb: 0.002, TailScaleUS: 80, TailAlpha: 1.8},
		trace.StageFrontendNet: net,
		trace.StageBlockServer: {BaseUS: 18, PerMiBUS: 35, JitterSigma: 0.25, TailProb: 0.004, TailScaleUS: 120, TailAlpha: 1.7},
		trace.StageBackendNet:  net,
		trace.StageChunkServer: {BaseUS: 85, PerMiBUS: 220, JitterSigma: 0.35, TailProb: 0.004, TailScaleUS: 400, TailAlpha: 1.4},
	}
	m.Write = m.Read
	// Writes persist with redundancy: the ChunkServer stage costs more and
	// tails harder. Tail events are kept rarer than 1%, so the p99 sits in
	// the lognormal body — caching the hot block then barely moves the p99,
	// matching §7.3.2's observation that neither cache fixes tail latency.
	m.Write[trace.StageChunkServer] = StageParams{
		BaseUS: 120, PerMiBUS: 300, JitterSigma: 0.4, TailProb: 0.006, TailScaleUS: 600, TailAlpha: 1.3,
	}
	return m
}

// CacheLocation is where a persistent cache is deployed (§7.3.2).
type CacheLocation uint8

// Cache deployment locations.
const (
	// NoCache disables caching.
	NoCache CacheLocation = iota
	// CNCache places the persistent cache on the compute node: hits skip
	// the storage cluster entirely.
	CNCache
	// BSCache places it on the BlockServer: hits skip the backend network
	// and the ChunkServer.
	BSCache
)

func (l CacheLocation) String() string {
	switch l {
	case NoCache:
		return "none"
	case CNCache:
		return "cn-cache"
	case BSCache:
		return "bs-cache"
	}
	return "unknown"
}

// cacheAccessUS is the cost of hitting the persistent cache medium (flash or
// PMEM) itself.
const cacheAccessUS = 15

// served is the stage vector of an IO whose uncached draw is lat, served
// at loc: a hit skips the stages past the one hosting the cache (they report
// zero) and pays the cache medium's access cost in that stage. Writes that
// hit pay it too: the paper requires persisted-with-redundancy semantics, so
// the cache must be a persistent cache. Deriving the cached vector from the
// uncached draw is exact, not an approximation: the stages a hit keeps are a
// prefix of the draw order (stage 0 for a CN hit, stages 0-2 for a BS hit),
// so a second draw of the IO's stream would only repeat their draws.
func served(lat [trace.NumStages]float32, loc CacheLocation, hit bool) [trace.NumStages]float32 {
	var host trace.Stage
	switch {
	case hit && loc == CNCache:
		host = trace.StageComputeNode
	case hit && loc == BSCache:
		host = trace.StageBlockServer
	default:
		return lat
	}
	for s := host + 1; s < trace.NumStages; s++ {
		lat[s] = 0
	}
	lat[host] += cacheAccessUS
	return lat
}

// Total sums a stage vector.
func Total(stages [trace.NumStages]float32) float64 {
	var t float64
	for _, v := range stages {
		t += float64(v)
	}
	return t
}
