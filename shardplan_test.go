package ebslab

import (
	"testing"

	"ebslab/internal/cluster"
)

// TestShardPlanSkew is the count behind the fabric's cost-aware shard plan, on
// the bench study (`ebssim -dist 2 -shards 8`'s shape): two workers take the
// eight shards in ID order, each the next one as it frees up, and every shard
// lasts as long as its predicted IOs. Under the equal-count plan one disk
// carrying ~45 % of the study shares its range with enough others that one
// worker runs ~63 % of the study while the other idles; the cost plan must
// bring the makespan close to the even half.
func TestShardPlanSkew(t *testing.T) {
	sim := benchStudySim(t)
	costs, err := sim.DiskCosts(benchStudyOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	const shards, workers = 8, 2
	equal := makespanShare(costs, cluster.PlanShards(len(costs), shards), workers)
	byCost := makespanShare(costs, cluster.PlanShardsByCost(costs, shards), workers)
	t.Logf("2-worker makespan: %.3f of the study under the equal-count plan, %.3f under the cost plan", equal, byCost)
	if equal < 0.62 || equal > 0.64 {
		t.Fatalf("equal-count plan's makespan share %.3f, want the measured 0.629: the study's skew moved", equal)
	}
	if byCost > 0.52 {
		t.Fatalf("cost plan's makespan share %.3f, want <= 0.52", byCost)
	}
}

// makespanShare deals plan's shards in ID order to whichever of `workers`
// frees up first (ties to the lower worker) and returns when the last one
// finishes, as a share of the total cost.
func makespanShare(cost []uint64, plan []cluster.ShardRange, workers int) float64 {
	busy := make([]uint64, workers)
	var total uint64
	for _, r := range plan {
		var c uint64
		for _, x := range cost[r.Lo:r.Hi] {
			c += x
		}
		total += c
		w := 0
		for i := range busy {
			if busy[i] < busy[w] {
				w = i
			}
		}
		busy[w] += c
	}
	var span uint64
	for _, b := range busy {
		span = max(span, b)
	}
	return float64(span) / float64(total)
}
