package core

import (
	"reflect"
	"strings"
	"testing"

	"ebslab/internal/cache"
	"ebslab/internal/workload"
)

// TestEnsureTotalsWorkerCountInvariance pins the aggregation pass's
// determinism contract: a Study with one worker and a Study with many must
// produce identical totals, down to float bit patterns.
func TestEnsureTotalsWorkerCountInvariance(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.DCs = 1
	cfg.NodesPerDC = 24
	cfg.DurationSec = 30
	mk := func(workers int) *Study {
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		return s
	}
	ref := mk(1).ensureTotals()
	if len(ref.vdRead) == 0 || len(ref.qpRead) == 0 || len(ref.vmRead) == 0 {
		t.Fatal("reference totals are empty")
	}
	for _, workers := range []int{2, 8} {
		got := mk(workers).ensureTotals()
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("totals differ between 1 and %d workers", workers)
		}
	}
}

// leakyCache admits every page it misses and never evicts, past the 4 pages
// it claims to hold: it breaks the cache accounting law.
type leakyCache struct{ pages map[int64]bool }

func (c *leakyCache) Name() string  { return "leaky" }
func (c *leakyCache) Len() int      { return len(c.pages) }
func (c *leakyCache) Capacity() int { return 4 }
func (c *leakyCache) Touch(page int64) bool {
	hit := c.pages[page]
	c.pages[page] = true
	return hit
}

// TestFig7aRunsTheCacheLaw: Fig 7(a)'s replays run the cache accounting
// law, so a replacement policy that leaks capacity leaves a conserve/cache
// violation in the study's report, and the inclusion law, so an "lru" whose
// hits fall as the block size grows leaves a cache/inclusion one.
func TestFig7aRunsTheCacheLaw(t *testing.T) {
	saved := pagePolicies
	defer func() { pagePolicies = saved }()
	cfg := workload.DefaultConfig()
	cfg.DCs = 1
	cfg.NodesPerDC = 8
	cfg.BSPerDC = 4
	cfg.BSPerCluster = 4
	cfg.Users = 8
	cfg.DurationSec = 30
	for _, tc := range []struct {
		law      string
		policies []func(int) cache.Cache
	}{
		{"conserve/cache: resident set", []func(int) cache.Cache{
			func(int) cache.Cache { return &leakyCache{pages: map[int64]bool{}} },
			saved[1],
		}},
		{"cache/inclusion: lru", []func(int) cache.Cache{
			saved[0],
			func(n int) cache.Cache { return shrinkingLRU(n) },
		}},
	} {
		pagePolicies = tc.policies
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Laws(); err != nil {
			t.Fatalf("a fresh study reports %v", err)
		}
		s.Fig7aHitRatio(VDSampleOptions{MaxVDs: 2, MaxEventsPerVD: 500})
		if err := s.Laws(); err == nil || !strings.Contains(err.Error(), tc.law) {
			t.Fatalf("Laws() after a broken replay = %v, want a %s violation", err, tc.law)
		}
	}
}

// shrinkingLRU calls itself LRU but hits every touch only at 64 MiB and
// none at larger sizes: it breaks the inclusion law and no other.
type shrinkingLRU int

func (c shrinkingLRU) Name() string          { return "lru" }
func (c shrinkingLRU) Len() int              { return 0 }
func (c shrinkingLRU) Capacity() int         { return int(c) }
func (c shrinkingLRU) Touch(page int64) bool { return int64(c)*cache.PageSize <= 64<<20 }
