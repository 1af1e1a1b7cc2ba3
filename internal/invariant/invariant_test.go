package invariant

import (
	"slices"
	"strings"
	"testing"

	"ebslab/internal/balancer"
	"ebslab/internal/cache"
	"ebslab/internal/cluster"
	"ebslab/internal/throttle"
)

func TestReportSuppression(t *testing.T) {
	rep := &Report{}
	for i := 0; i < maxPerLaw+5; i++ {
		rep.Addf("law/a", "violation %d", i)
	}
	rep.Addf("law/b", "different law still reported")
	if len(rep.Violations) != maxPerLaw+1 {
		t.Fatalf("retained %d violations, want %d", len(rep.Violations), maxPerLaw+1)
	}
	if rep.OK() {
		t.Fatal("report with violations claims OK")
	}
	s := rep.String()
	if !strings.Contains(s, "suppressed") || !strings.Contains(s, "law/b") {
		t.Errorf("render missing suppression note or second law:\n%s", s)
	}
	if err := rep.Err(); err == nil {
		t.Fatal("Err() nil on violated report")
	}
}

func TestReportCleanRendersOK(t *testing.T) {
	rep := &Report{}
	if !rep.OK() || rep.Err() != nil {
		t.Fatal("zero report not clean")
	}
	if got := rep.String(); got != "all invariants hold" {
		t.Errorf("clean render %q", got)
	}
}

// --- throttle --------------------------------------------------------------

// The grant audit the engine folds into law throttle/grants: a healthy
// group, plain and under Appendix B lending, replays without a violation.

func TestCheckThrottleClean(t *testing.T) {
	caps := []throttle.Caps{{Tput: 1000, IOPS: 10}, {Tput: 500, IOPS: 5}}
	demand := [][]throttle.Demand{
		{{WriteBps: 2000, WriteIOPS: 4}, {WriteBps: 200, WriteIOPS: 1}, {}},
		{{ReadBps: 100, ReadIOPS: 1}, {ReadBps: 900, ReadIOPS: 9}, {}},
	}
	res, msgs := new(throttle.Scratch).Replay(caps, demand, throttle.Replay{Audit: true})
	if len(msgs) > 0 {
		t.Fatalf("throttle audit flagged a healthy group:\n%s", strings.Join(msgs, "\n"))
	}
	if res.TotalThrottledSecs == 0 {
		t.Error("expected throttling with demand over cap")
	}
}

func TestCheckThrottleLendingClean(t *testing.T) {
	caps := []throttle.Caps{{Tput: 1000, IOPS: 100}, {Tput: 1000, IOPS: 100}, {Tput: 1000, IOPS: 100}}
	demand := make([][]throttle.Demand, 3)
	for vd := range demand {
		demand[vd] = make([]throttle.Demand, 30)
		for s := range demand[vd] {
			if vd == 0 {
				demand[vd][s] = throttle.Demand{WriteBps: 2500, WriteIOPS: 50}
			} else {
				demand[vd][s] = throttle.Demand{WriteBps: 100, WriteIOPS: 10}
			}
		}
	}
	lend := throttle.Lending{Rate: 0.5, PeriodSec: 10}
	if _, msgs := new(throttle.Scratch).Replay(caps, demand, throttle.Replay{Lend: &lend, Audit: true}); len(msgs) > 0 {
		t.Fatalf("lending audit flagged a healthy group:\n%s", strings.Join(msgs, "\n"))
	}
}

// --- cache -----------------------------------------------------------------

func TestSimulateCheckedCleanPolicies(t *testing.T) {
	var accesses []cache.Access
	for i := 0; i < 500; i++ {
		off := int64(i%37) * cache.PageSize
		accesses = append(accesses, cache.Access{Offset: off, Size: int32(cache.PageSize) * int32(1+i%3)})
	}
	s := cache.Number(accesses)
	for _, c := range []cache.Cache{cache.NewFIFO(16), cache.NewLRU(16), cache.NewClock(16), s.Frozen(0, 16*cache.PageSize)} {
		rep := &Report{}
		CheckStream(rep, accesses, s)
		res := SimulateChecked(rep, c, s)
		if !rep.OK() {
			t.Errorf("%s: audit flagged a healthy policy:\n%s", c.Name(), rep.String())
		}
		if res.PageTotal == 0 {
			t.Errorf("%s: no page touches counted", c.Name())
		}
	}
}

// leakyCache violates the capacity law: it admits without evicting.
type leakyCache struct{ set map[int64]bool }

func (c *leakyCache) Name() string  { return "leaky" }
func (c *leakyCache) Len() int      { return len(c.set) }
func (c *leakyCache) Capacity() int { return 4 }
func (c *leakyCache) Touch(page int64) bool {
	if c.set[page] {
		return true
	}
	c.set[page] = true
	return false
}

func TestSimulateCheckedCatchesCapacityLeak(t *testing.T) {
	var accesses []cache.Access
	for i := 0; i < 32; i++ {
		accesses = append(accesses, cache.Access{Offset: int64(i) * cache.PageSize, Size: int32(cache.PageSize)})
	}
	rep := &Report{}
	SimulateChecked(rep, &leakyCache{set: map[int64]bool{}}, cache.Number(accesses))
	if rep.OK() {
		t.Fatal("capacity-violating cache passed the audit")
	}
}

// TestSimulateCheckedCatchesNumberingBugs: CheckStream's page recount holds
// every touch's id to the page the accesses cover there, so a stream that
// drops a touch, swaps two ids or numbers pages out of order is a
// conserve/cache violation.
func TestSimulateCheckedCatchesNumberingBugs(t *testing.T) {
	var accesses []cache.Access
	for i := 0; i < 40; i++ {
		accesses = append(accesses, cache.Access{Offset: int64(i%7) * cache.PageSize, Size: int32(cache.PageSize) * int32(1+i%2)})
	}
	for name, corrupt := range map[string]func(s *cache.Stream){
		"clean":          func(*cache.Stream) {},
		"dropped touch":  func(s *cache.Stream) { s.IDs = s.IDs[1:] },
		"swapped ids":    func(s *cache.Stream) { s.IDs[3], s.IDs[4] = s.IDs[4], s.IDs[3] },
		"out of order":   func(s *cache.Stream) { s.Pages[0], s.Pages[1] = s.Pages[1], s.Pages[0] },
		"id past pages":  func(s *cache.Stream) { s.IDs[5] = int32(len(s.Pages)) },
		"one page twice": func(s *cache.Stream) { s.Pages[2] = s.Pages[1] },
	} {
		s := cache.Number(accesses)
		corrupt(&s)
		rep := &Report{}
		CheckStream(rep, accesses, s)
		SimulateChecked(rep, cache.NewLRU(4), s)
		if got := rep.OK(); got != (name == "clean") {
			t.Errorf("%s: audit OK = %v:\n%s", name, got, rep.String())
		}
	}
}

// TestInclusionLawCatchesBeladysAnomaly replays Belady's sequence
// 1 2 3 4 1 2 5 1 2 3 4 5 at 3 and 4 pages: FIFO hits 3 then 2 times, which
// the cache/inclusion law flags, while LRU's counts (2, 4) hold.
func TestInclusionLawCatchesBeladysAnomaly(t *testing.T) {
	var accesses []cache.Access
	for _, p := range []int64{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5} {
		accesses = append(accesses, cache.Access{Offset: p * cache.PageSize, Size: int32(cache.PageSize)})
	}
	s := cache.Number(accesses)
	caps := []int{3, 4}
	for _, tc := range []struct {
		policy string
		mk     func(int) cache.Cache
		want   []int64
	}{
		{"fifo", func(n int) cache.Cache { return cache.NewFIFO(n) }, []int64{3, 2}},
		{"lru", func(n int) cache.Cache { return cache.NewLRU(n) }, []int64{2, 4}},
	} {
		var hits []int64
		for _, n := range caps {
			hits = append(hits, cache.Simulate(tc.mk(n), s).PageHits)
		}
		if !slices.Equal(hits, tc.want) {
			t.Fatalf("%s hits %v at %v pages, want %v", tc.policy, hits, caps, tc.want)
		}
		rep := &Report{}
		CheckInclusion(rep, tc.policy, caps, hits)
		if tc.policy == "fifo" && !strings.Contains(rep.String(), "cache/inclusion") {
			t.Fatalf("FIFO's Belady anomaly passed the inclusion law:\n%s", rep.String())
		}
		if tc.policy == "lru" && !rep.OK() {
			t.Fatalf("LRU broke the inclusion law:\n%s", rep.String())
		}
	}
}

// --- balancer --------------------------------------------------------------

// hotTraffic builds a segment/period matrix with one persistently hot BS so
// the balancer actually migrates.
func hotTraffic(nSegs, nPeriods int) [][]balancer.RW {
	m := make([][]balancer.RW, nSegs)
	for s := range m {
		m[s] = make([]balancer.RW, nPeriods)
		for p := range m[s] {
			w := 10.0
			if s < 4 {
				w = 400 + 50*float64(s)
			}
			m[s][p] = balancer.RW{W: w, R: 5 * float64(1+s%3)}
		}
	}
	return m
}

func balancerScenario() (*cluster.SegmentMap, [][]balancer.RW, balancer.Result) {
	const nSegs, nBS, nPeriods = 24, 4, 6
	seg2bs := cluster.NewSegmentMap(nSegs, nBS)
	for s := 0; s < nSegs; s++ {
		bs := cluster.StorageNodeID(0)
		if s >= 4 {
			bs = cluster.StorageNodeID(s % nBS)
		}
		seg2bs.Assign(cluster.SegmentID(s), bs)
	}
	traffic := hotTraffic(nSegs, nPeriods)
	res := balancer.Run(seg2bs, traffic, balancer.MinTrafficPolicy{}, balancer.DefaultConfig())
	return seg2bs, traffic, res
}

func TestCheckBalancerClean(t *testing.T) {
	seg2bs, traffic, res := balancerScenario()
	if len(res.Migrations) == 0 {
		t.Fatal("scenario produced no migrations; the replay check is vacuous")
	}
	rep := &Report{}
	CheckBalancer(rep, seg2bs, traffic, &res)
	if !rep.OK() {
		t.Fatalf("balancer replay flagged a healthy run:\n%s", rep.String())
	}
}

func TestCheckBalancerCatchesPhantomMigration(t *testing.T) {
	seg2bs, traffic, res := balancerScenario()
	// Claim a segment moved from a BS that never hosted it.
	res.Migrations[0].From++
	rep := &Report{}
	CheckBalancer(rep, seg2bs, traffic, &res)
	if rep.OK() {
		t.Fatal("phantom migration passed the replay check")
	}
}

func TestCheckBalancerCatchesDroppedMigration(t *testing.T) {
	seg2bs, traffic, res := balancerScenario()
	// Losing a migration desynchronizes the replayed placement, so later
	// periods' CoVs (or later moves' From fields) stop matching.
	res.Migrations = res.Migrations[1:]
	rep := &Report{}
	CheckBalancer(rep, seg2bs, traffic, &res)
	if rep.OK() {
		t.Fatal("dropped migration passed the replay check")
	}
}

func TestCheckBalancerCatchesForgedCoV(t *testing.T) {
	seg2bs, traffic, res := balancerScenario()
	res.WriteCoV[len(res.WriteCoV)-1] *= 1.5
	rep := &Report{}
	CheckBalancer(rep, seg2bs, traffic, &res)
	if rep.OK() {
		t.Fatal("forged CoV passed the replay check")
	}
}
