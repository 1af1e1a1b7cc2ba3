// Package sketch implements the streaming analytics subsystem: small,
// deterministic, mergeable summaries that compute the study's skewness
// metrics (CCR, P2A, CoV, wr_ratio, RAR, hot-entity rankings, latency and
// size quantiles, active-entity cardinality) online, in memory independent
// of the trace length. The paper's collection pipeline aggregates 310M IOs
// at the source for exactly this reason: at fleet scale the per-IO trace
// cannot be materialized first and analyzed later.
//
// Every structure in the package is a commutative monoid over its input
// multiset wherever it can afford to be — integer counters, register maxima,
// bucket sums — and the one structure that cannot (SpaceSaving, whose
// truncation is order-sensitive) is kept per virtual disk and folded in
// canonical VD order at finalization. Combined with the engine's rule that
// each virtual disk is processed whole by exactly one shard, merged results
// are byte-identical for every worker count; see DESIGN.md, "Streaming
// sketch analytics" for the full determinism argument and error bounds.
// The Set frame (codec.go) is a walk over the internal/wire cursor.
package sketch

import "sort"

// Entry is one ranked heavy-hitter: a key with its estimated weight and the
// maximum overestimation error of that weight. The true weight lies in
// [Count-Err, Count].
type Entry struct {
	Key   uint64
	Count uint64
	Err   uint64
}

// Totals is the exact ingest accounting every sketch set keeps alongside its
// approximations; the invariant layer's conservation law compares merged
// totals against the sum of per-shard totals.
type Totals struct {
	IOs   uint64
	Bytes uint64
}

// Add accumulates o into t.
func (t *Totals) Add(o Totals) {
	t.IOs += o.IOs
	t.Bytes += o.Bytes
}

// sortedKeys returns the map's keys in ascending order; every AppendHash and
// finalize fold iterates maps through it so serialization order never
// depends on map iteration order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
