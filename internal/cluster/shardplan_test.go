package cluster

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPlanShards pins the plan's three invariants — disjoint, covering,
// balanced — across shapes including remainders, more shards than VDs, and
// degenerate inputs.
func TestPlanShards(t *testing.T) {
	cases := []struct {
		nVDs, nShards int
		wantShards    int
	}{
		{10, 2, 2},
		{10, 3, 3},
		{7, 7, 7},
		{3, 8, 3}, // clamp: never an empty shard
		{5, 0, 1}, // nShards < 1 clamps to 1
		{1, 1, 1},
		{120, 16, 16},
	}
	for _, tc := range cases {
		plan := PlanShards(tc.nVDs, tc.nShards)
		if len(plan) != tc.wantShards {
			t.Fatalf("PlanShards(%d, %d) = %d shards, want %d", tc.nVDs, tc.nShards, len(plan), tc.wantShards)
		}
		next := 0
		minLen, maxLen := tc.nVDs, 0
		for _, r := range plan {
			if r.Lo != next {
				t.Fatalf("PlanShards(%d, %d): shard %v not contiguous with previous end %d", tc.nVDs, tc.nShards, r, next)
			}
			if r.Len() <= 0 {
				t.Fatalf("PlanShards(%d, %d): empty shard %v", tc.nVDs, tc.nShards, r)
			}
			if r.Len() < minLen {
				minLen = r.Len()
			}
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
			next = r.Hi
		}
		if next != tc.nVDs {
			t.Fatalf("PlanShards(%d, %d): plan covers [0,%d)", tc.nVDs, tc.nShards, next)
		}
		if maxLen-minLen > 1 {
			t.Fatalf("PlanShards(%d, %d): imbalance %d..%d", tc.nVDs, tc.nShards, minLen, maxLen)
		}
	}
	if got := PlanShards(0, 4); got != nil {
		t.Fatalf("PlanShards(0, 4) = %v, want nil", got)
	}
}

// TestPlanShardsByCost pins the cost-aware plan: PlanShards' range count and
// tiling, a heaviest range equal to the brute-force optimum over every
// contiguous partition, IDs in descending cost with ties to the lower Lo, and
// PlanShards' own ranges when nothing costs anything. The weights cover zeros,
// uniform costs and one disk carrying at least 90 % of the total.
func TestPlanShardsByCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 10; n++ {
		var weights [][]uint64
		for trial := 0; trial < 20; trial++ {
			w := make([]uint64, n)
			for i := range w {
				w[i] = uint64(rng.Intn(6)) // zeros included
			}
			weights = append(weights, w)
		}
		uniform, zero := make([]uint64, n), make([]uint64, n)
		for i := range uniform {
			uniform[i] = 3
		}
		weights = append(weights, uniform, zero)
		for hot := 0; hot < n; hot++ {
			w := make([]uint64, n)
			var rest uint64
			for i := range w {
				if i != hot {
					w[i] = uint64(rng.Intn(4))
					rest += w[i]
				}
			}
			w[hot] = 9*rest + 1 // >= 90 % of the total
			weights = append(weights, w)
		}
		for k := 0; k <= 4; k++ {
			for _, w := range weights {
				checkCostPlan(t, w, k)
			}
		}
	}
	if got := PlanShardsByCost(nil, 4); got != nil {
		t.Fatalf("PlanShardsByCost(nil, 4) = %v, want nil", got)
	}
}

func checkCostPlan(t *testing.T, cost []uint64, k int) {
	t.Helper()
	plan := PlanShardsByCost(cost, k)
	costOf := func(r ShardRange) uint64 {
		var s uint64
		for _, c := range cost[r.Lo:r.Hi] {
			s += c
		}
		return s
	}
	want := PlanShards(len(cost), k)
	if len(plan) != len(want) {
		t.Fatalf("PlanShardsByCost(%v, %d) = %d ranges, PlanShards returns %d", cost, k, len(plan), len(want))
	}
	var heaviest, total uint64
	for id, r := range plan {
		if r.Len() <= 0 {
			t.Fatalf("PlanShardsByCost(%v, %d): empty range %v", cost, k, r)
		}
		if id > 0 {
			prev := plan[id-1]
			if costOf(prev) < costOf(r) || costOf(prev) == costOf(r) && prev.Lo > r.Lo {
				t.Fatalf("PlanShardsByCost(%v, %d) = %v: ID %d %v (cost %d) after %v (cost %d), want descending cost, ties by Lo",
					cost, k, plan, id, r, costOf(r), prev, costOf(prev))
			}
		}
		heaviest = max(heaviest, costOf(r))
		total += costOf(r)
	}
	tiled := slices.Clone(plan)
	slices.SortFunc(tiled, func(a, b ShardRange) int { return a.Lo - b.Lo })
	next := 0
	for _, r := range tiled {
		if r.Lo != next {
			t.Fatalf("PlanShardsByCost(%v, %d) = %v: gap or overlap at %d", cost, k, plan, next)
		}
		next = r.Hi
	}
	if next != len(cost) {
		t.Fatalf("PlanShardsByCost(%v, %d) = %v covers [0,%d)", cost, k, plan, next)
	}
	if total == 0 && !slices.Equal(plan, want) {
		t.Fatalf("PlanShardsByCost(%v, %d) = %v, want PlanShards' %v", cost, k, plan, want)
	}
	if opt := bruteBottleneck(cost, len(want)); heaviest != opt {
		t.Fatalf("PlanShardsByCost(%v, %d) = %v: heaviest range %d, optimum %d", cost, k, plan, heaviest, opt)
	}
}

// bruteBottleneck is the least heaviest-range cost over every partition of
// cost into exactly m contiguous non-empty ranges.
func bruteBottleneck(cost []uint64, m int) uint64 {
	if m == 1 {
		var s uint64
		for _, c := range cost {
			s += c
		}
		return s
	}
	best := ^uint64(0)
	var first uint64
	for cut := 1; cut <= len(cost)-m+1; cut++ {
		first += cost[cut-1]
		best = min(best, max(first, bruteBottleneck(cost[cut:], m-1)))
	}
	return best
}

// TestPickShard pins the placement policy: lowest pending ID first, and a
// worker never receives a shard it already attempted (speculation must move
// to a different worker).
func TestPickShard(t *testing.T) {
	pending := []int{3, 5, 9}
	if got := PickShard(pending, nil); got != 3 {
		t.Fatalf("PickShard no filter = %d, want 3", got)
	}
	attempted := map[int]bool{3: true}
	if got := PickShard(pending, func(s int) bool { return attempted[s] }); got != 5 {
		t.Fatalf("PickShard skipping attempted = %d, want 5", got)
	}
	all := func(int) bool { return true }
	if got := PickShard(pending, all); got != -1 {
		t.Fatalf("PickShard all attempted = %d, want -1", got)
	}
	if got := PickShard(nil, nil); got != -1 {
		t.Fatalf("PickShard empty = %d, want -1", got)
	}
}
