package core

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ebslab/internal/cache"
	"ebslab/internal/workload"
)

// TestEnsureTotalsWorkerCountInvariance pins the determinism contract of
// the study's worker pool: a Study with one worker and a Study with many
// must produce identical totals and identical forecaster scores, down to
// float bit patterns. The scores are also shared: the predictor ablation's
// linear, arima and attention rows are Fig 4(c)'s P1, P2 and P5 bit for bit,
// whichever of the two scores them first.
func TestEnsureTotalsWorkerCountInvariance(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.DCs = 1
	cfg.NodesPerDC = 24
	cfg.DurationSec = 30
	mk := func(cfg workload.Config, workers int) *Study {
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		return s
	}
	ref := mk(cfg, 1).ensureTotals()
	if len(ref.vdRead) == 0 || len(ref.qpRead) == 0 || len(ref.vmRead) == 0 {
		t.Fatal("reference totals are empty")
	}
	for _, workers := range []int{2, 8} {
		got := mk(cfg, workers).ensureTotals()
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("totals differ between 1 and %d workers", workers)
		}
	}

	one, four := mk(goldenConfig(), 1), mk(goldenConfig(), 4)
	fig1, ab1 := one.Fig4cPredictionMSE(), one.AblatePredictors()
	ab4, fig4 := four.AblatePredictors(), four.Fig4cPredictionMSE()
	if !reflect.DeepEqual(fig1, fig4) || !reflect.DeepEqual(ab1, ab4) {
		t.Fatalf("forecaster scores differ between 1 and 4 workers:\n%v %v\n%v %v", fig1, ab1, fig4, ab4)
	}
	for _, pair := range [][2]string{{"P1 linear (per-period)", "linear"}, {"P2 arima (per-period)", "arima"}, {"P5 attention (per-period)", "attention"}} {
		p := fig1.MeanNormMSE[slices.Index(fig1.Methods, pair[0])]
		a := ab4.Median[slices.Index(ab4.Methods, pair[1])]
		if math.Float64bits(p) != math.Float64bits(a) {
			t.Errorf("Fig 4(c) scores %s %v, the ablation scores %s %v", pair[0], p, pair[1], a)
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
