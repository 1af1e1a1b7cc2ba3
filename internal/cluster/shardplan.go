package cluster

import (
	"cmp"
	"fmt"
	"slices"
)

// ShardRange is a half-open range [Lo, Hi) of virtual-disk indices — the
// unit of work the distributed simulation fabric dispatches. Shards are
// VD-disjoint by construction: every VD index belongs to exactly one shard,
// which is what makes shard results mergeable into a byte-identical dataset
// regardless of which worker (or how many) executed them.
type ShardRange struct {
	Lo, Hi int
}

// Len returns the number of VDs in the shard.
func (r ShardRange) Len() int { return r.Hi - r.Lo }

func (r ShardRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// PlanShards partitions nVDs virtual disks into at most nShards contiguous,
// disjoint, covering ranges whose sizes differ by at most one (the first
// nVDs%nShards shards absorb the remainder). The plan is a pure function of
// its arguments, so the coordinator and any auditor derive the same plan
// without communication. Fewer than nShards ranges are returned when there
// are fewer VDs than shards; nShards < 1 is clamped to 1.
func PlanShards(nVDs, nShards int) []ShardRange {
	if nVDs <= 0 {
		return nil
	}
	if nShards < 1 {
		nShards = 1
	}
	if nShards > nVDs {
		nShards = nVDs
	}
	base := nVDs / nShards
	extra := nVDs % nShards
	out := make([]ShardRange, 0, nShards)
	lo := 0
	for i := 0; i < nShards; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, ShardRange{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// PlanShardsByCost partitions len(cost) virtual disks (cost[i] is disk i's
// predicted work) into exactly the number of ranges PlanShards would return —
// contiguous, disjoint, covering, non-empty — with the heaviest range as light
// as any such partition allows. It binary-searches the smallest limit under
// which a greedy left-to-right fill, which leaves a disk heavier than the
// limit on its own, needs no more ranges than that: the heaviest range is then
// a lone hot disk or the limit, and the others are as light as the limit
// makes them. The fill's ranges are split, heaviest first, until there are
// enough. IDs (slice positions) run in descending range cost, ties to the
// lower Lo, so PickShard's lowest-ID-first placement deals the heaviest shard
// first. With no cost at all the plan is PlanShards'. Like PlanShards it is a
// pure function of its arguments.
func PlanShardsByCost(cost []uint64, nShards int) []ShardRange {
	prefix := make([]uint64, len(cost)+1)
	for i, c := range cost {
		prefix[i+1] = prefix[i] + c
	}
	total := prefix[len(cost)]
	if total == 0 {
		return PlanShards(len(cost), nShards)
	}
	k := min(max(nShards, 1), len(cost))
	costOf := func(r ShardRange) uint64 { return prefix[r.Hi] - prefix[r.Lo] }

	var plan []ShardRange
	lo, hi := uint64(0), total
	for lo < hi {
		mid := lo + (hi-lo)/2
		if plan = fillUnder(plan[:0], prefix, mid); len(plan) <= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	plan = fillUnder(plan[:0], prefix, lo)
	for len(plan) < k {
		// k <= len(cost), so some range still spans two disks.
		j := -1
		for i, r := range plan {
			if r.Len() >= 2 && (j < 0 || costOf(r) > costOf(plan[j])) {
				j = i
			}
		}
		// Cut where the heavier half is lightest (the first such cut).
		r := plan[j]
		cut, worst := 0, uint64(0)
		for c := r.Lo + 1; c < r.Hi; c++ {
			if w := max(prefix[c]-prefix[r.Lo], prefix[r.Hi]-prefix[c]); cut == 0 || w < worst {
				cut, worst = c, w
			}
		}
		plan[j].Hi = cut
		plan = slices.Insert(plan, j+1, ShardRange{Lo: cut, Hi: r.Hi})
	}
	// Stable: equal costs keep the fill's ascending Lo order.
	slices.SortStableFunc(plan, func(a, b ShardRange) int { return cmp.Compare(costOf(b), costOf(a)) })
	return plan
}

// fillUnder cuts the disks whose prefix sums prefix holds into ranges left to
// right, closing a range just before the disk that would take it past limit
// (so a disk heavier than limit makes a range of its own), and appends them
// to out.
func fillUnder(out []ShardRange, prefix []uint64, limit uint64) []ShardRange {
	lo := 0
	for i := 1; i < len(prefix)-1; i++ {
		if prefix[i+1]-prefix[lo] > limit {
			out = append(out, ShardRange{Lo: lo, Hi: i})
			lo = i
		}
	}
	return append(out, ShardRange{Lo: lo, Hi: len(prefix) - 1})
}

// PickShard is the fabric's shard-to-worker placement policy: given the
// pending shard IDs (ascending) it returns the first shard the asking
// worker has not already attempted, or -1 when nothing is placeable on that
// worker. Lowest-ID-first keeps placement deterministic for a fixed request
// order, and the attempted filter ensures a speculative re-dispatch of a
// straggling shard lands on a *different* worker than the one sitting on
// it — re-running it in the same place would race the same slow execution.
func PickShard(pending []int, attempted func(shard int) bool) int {
	for _, s := range pending {
		if attempted == nil || !attempted(s) {
			return s
		}
	}
	return -1
}
