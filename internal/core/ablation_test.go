package core

import (
	"math"
	"strings"
	"testing"

	"ebslab/internal/hypervisor"
)

func TestRebindPeriodSweep(t *testing.T) {
	s := study(t)
	short := s.Fig2dRebinding(RebindOptions{MaxNodes: 12, WinSec: 8, Config: hypervisor.RebindConfig{PeriodSlots: 1, Trigger: 1.2, EvalSlots: 5}})
	long := s.Fig2dRebinding(RebindOptions{MaxNodes: 12, WinSec: 8, Config: hypervisor.RebindConfig{PeriodSlots: 50, Trigger: 1.2, EvalSlots: 5}})
	if len(short.Points) == 0 || len(long.Points) == 0 {
		t.Skip("no active nodes in sample")
	}
	// Ratio is per period, so normalize to rebinds per slot: a 500 ms
	// period cannot rebind more often per unit time than a 10 ms one.
	if !(long.MedianRatio/50 <= short.MedianRatio/1+1e-9) {
		t.Errorf("long-period rebinds/slot %v above short-period %v",
			long.MedianRatio/50, short.MedianRatio)
	}
}

func TestAblateDispatchOrdering(t *testing.T) {
	s := study(t)
	single := s.AblateDispatch(DispatchOptions{MaxNodes: 12, WinSec: 8, Policy: hypervisor.DispatchSingleWT})
	least := s.AblateDispatch(DispatchOptions{MaxNodes: 12, WinSec: 8, Policy: hypervisor.DispatchLeastLoaded})
	if single.Nodes == 0 {
		t.Skip("no active nodes")
	}
	if single.SyncOps != 0 {
		t.Errorf("single-WT paid %d sync ops", single.SyncOps)
	}
	if least.SyncOps == 0 {
		t.Errorf("least-loaded paid no sync ops")
	}
	// Per-IO dispatch balances at least as well as pinning.
	if !math.IsNaN(single.MedianCoV) && !math.IsNaN(least.MedianCoV) {
		if !(least.MedianCoV <= single.MedianCoV+1e-9) {
			t.Errorf("least-loaded CoV %v above single-WT %v", least.MedianCoV, single.MedianCoV)
		}
	}
}

func TestAblateHosting(t *testing.T) {
	s := study(t)
	r := s.AblateHosting(NodeWindowOptions{MaxNodes: 12, WinSec: 6})
	if r.Nodes == 0 {
		t.Skip("no nodes with enough sampled IO")
	}
	poll := r.MedianIsolation[hypervisor.SingleWTPolling]
	fifo := r.MedianIsolation[hypervisor.SharedQueueFIFO]
	// Polling insulates light QPs at least as well as a shared FIFO.
	if !math.IsNaN(poll) && !math.IsNaN(fifo) && poll > fifo+0.3 {
		t.Errorf("polling isolation %v much worse than FIFO %v", poll, fifo)
	}
	if !strings.Contains(r.Render(), "Ablation") {
		t.Fatal("render missing title")
	}
}

func TestAblateCachePolicy(t *testing.T) {
	s := study(t)
	r := s.AblateCachePolicy(VDSampleOptions{MaxVDs: 10, MaxEventsPerVD: 4000})
	for _, name := range []string{"fifo", "lru", "clock", "frozen"} {
		v, ok := r.Median[name]
		if !ok {
			t.Fatalf("policy %s missing", name)
		}
		if !math.IsNaN(v) && (v < 0 || v > 1) {
			t.Fatalf("policy %s hit ratio %v", name, v)
		}
	}
	// CLOCK approximates LRU.
	if math.Abs(r.Median["clock"]-r.Median["lru"]) > 0.15 {
		t.Errorf("clock %v far from lru %v", r.Median["clock"], r.Median["lru"])
	}
	if !strings.Contains(r.Render(), "cache policies") {
		t.Fatal("render missing title")
	}
}

func TestAblateFailover(t *testing.T) {
	s := study(t)
	r := s.AblateFailover()
	if r.Greedy.Moved == 0 || r.Random.Moved != r.Greedy.Moved {
		t.Fatalf("moved counts: greedy %d, random %d", r.Greedy.Moved, r.Random.Moved)
	}
	// Load-aware recovery never leaves a worse hotspot than blind
	// scattering on the same scenario... not guaranteed per-seed, but it
	// must stay in a sane band.
	if !math.IsNaN(r.Greedy.MaxOverload) && r.Greedy.MaxOverload > r.Random.MaxOverload*1.5 {
		t.Errorf("greedy overload %v far above random %v", r.Greedy.MaxOverload, r.Random.MaxOverload)
	}
	if !strings.Contains(r.Render(), "failover") {
		t.Fatal("render missing title")
	}
}

func TestAblatePredictors(t *testing.T) {
	s := study(t)
	r := s.AblatePredictors()
	if len(r.Methods) != 7 {
		t.Fatalf("methods = %v", r.Methods)
	}
	vals := map[string]float64{}
	for i, m := range r.Methods {
		vals[m] = r.Median[i]
		if math.IsNaN(r.Median[i]) {
			t.Fatalf("method %s NaN", m)
		}
	}
	// Smoothing (EWMA) stays competitive with the naive forecast on
	// volatile series (strictly better on most seeds; never far worse).
	if !(vals["ewma"] < vals["naive"]*1.5) {
		t.Errorf("ewma %v far above naive %v", vals["ewma"], vals["naive"])
	}
	if !strings.Contains(r.Render(), "predictors") {
		t.Fatal("render missing title")
	}
}

func TestAblateCacheDeployment(t *testing.T) {
	s := study(t)
	r := s.AblateCacheDeployment(VDSampleOptions{MaxVDs: 12, MaxEventsPerVD: 5000})
	if r.VDs == 0 {
		t.Skip("no study VDs")
	}
	if math.IsNaN(r.HybridP50) {
		t.Skip("no cacheable VDs in sample")
	}
	// The hybrid never does worse than BS-only (the BS level backs it) and
	// never better than an infinitely-large CN-only cache.
	if !(r.HybridP50 <= r.BSP50+0.05) {
		t.Errorf("hybrid p50 %v worse than bs-only %v", r.HybridP50, r.BSP50)
	}
	if !(r.HybridP50 >= r.CNP50-0.05) {
		t.Errorf("hybrid p50 %v better than cn-only %v", r.HybridP50, r.CNP50)
	}
	if !strings.Contains(r.Render(), "cache deployment") {
		t.Fatal("render missing title")
	}
}
