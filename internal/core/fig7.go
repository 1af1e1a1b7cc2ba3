package core

import (
	"fmt"
	"math"
	"strings"

	"ebslab/internal/cache"
	"ebslab/internal/cluster"
	"ebslab/internal/invariant"
	"ebslab/internal/latency"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
)

// Fig7aResult is the cache-policy hit-ratio sweep of Figure 7(a).
type Fig7aResult struct {
	BlockMiB []int64
	// Median and 10th-percentile hit ratios across study VDs, per policy.
	FIFOMed, LRUMed, FCMed []float64
	FIFOP10, LRUP10, FCP10 []float64
	VDs                    int
}

// Fig7aHitRatio replays each study VD's IO stream through FIFO, LRU and a
// frozen cache sized to each block size; the frozen cache pins the VD's
// hottest block of that size, matching §7.3.1's setup.
func (s *Study) Fig7aHitRatio(opt VDSampleOptions) Fig7aResult {
	mustOpt(opt.Validate())
	maxVDs, maxEventsPerVD := opt.MaxVDs, opt.MaxEventsPerVD
	if maxVDs <= 0 {
		maxVDs = 32
	}
	if maxEventsPerVD <= 0 {
		maxEventsPerVD = 20000
	}
	vds := s.studyVDs(maxVDs)
	res := Fig7aResult{BlockMiB: BlockSizesMiB, VDs: len(vds)}
	for _, hits := range s.hitRatios(vds, maxEventsPerVD, BlockSizesMiB, pagePolicies[:2]) {
		fifo, lru, fc := hits["fifo"], hits["lru"], hits["frozen"]
		res.FIFOMed = append(res.FIFOMed, stats.Median(fifo))
		res.LRUMed = append(res.LRUMed, stats.Median(lru))
		res.FCMed = append(res.FCMed, stats.Median(fc))
		res.FIFOP10 = append(res.FIFOP10, stats.Quantile(fifo, 0.1))
		res.LRUP10 = append(res.LRUP10, stats.Quantile(lru, 0.1))
		res.FCP10 = append(res.FCP10, stats.Quantile(fc, 0.1))
	}
	return res
}

// pagePolicies are the replacement policies the §7 hit-ratio replays run
// beside the frozen cache: FIFO and LRU for Fig 7(a), plus CLOCK for the
// cache-policy ablation.
var pagePolicies = []func(capPages int) cache.Cache{
	func(n int) cache.Cache { return cache.NewFIFO(n) },
	func(n int) cache.Cache { return cache.NewLRU(n) },
	func(n int) cache.Cache { return cache.NewClock(n) },
}

// hitRatios draws each VD's accesses (capped near maxEvents) and numbers
// their pages once, then replays them through every policy sized to each
// block size and through a frozen cache pinning the VD's hottest block of
// that size (§7.3.1's setup). It returns the non-NaN hit ratios by cache
// name, one map per block size. Every replay is audited (law
// conserve/cache), and each VD's LRU hit counts must not fall as the block
// size grows (law cache/inclusion): blockMiB increase.
func (s *Study) hitRatios(vds []cluster.VDID, maxEvents int, blockMiB []int64, policies []func(capPages int) cache.Cache) []map[string][]float64 {
	hits := make([]map[string][]float64, len(blockMiB))
	caps := make([]int, len(blockMiB))
	for i, mib := range blockMiB {
		hits[i] = map[string][]float64{}
		caps[i] = int(mib << 20 / cache.PageSize)
	}
	var rep invariant.Report
	defer s.fold(&rep)
	for _, vd := range vds {
		accesses := s.vdAccesses(vd, maxEvents, s.Fleet.GenEvents)
		if len(accesses) == 0 {
			continue
		}
		stream := cache.Number(accesses)
		var lruHits []int64
		for i, mib := range blockMiB {
			size := mib << 20
			replay := func(c cache.Cache) {
				res := invariant.SimulateChecked(&rep, c, accesses, stream)
				if c.Name() == "lru" {
					lruHits = append(lruHits, res.PageHits)
				}
				if v := res.HitRatio(); !math.IsNaN(v) {
					hits[i][c.Name()] = append(hits[i][c.Name()], v)
				}
			}
			for _, mk := range policies {
				replay(mk(caps[i]))
			}
			if br := cache.AnalyzeBlocks(accesses, s.Fleet.Topology.VDs[vd].Capacity, size); br.Hottest >= 0 {
				replay(stream.Frozen(br.Hottest*size, size))
			}
		}
		invariant.CheckInclusion(&rep, "lru", caps, lruHits)
	}
	return hits
}

// cacheableAccessRate is §7.3.2's provisioning cut: a VD counts as cacheable
// when its hottest block draws at least this share of its accesses.
const cacheableAccessRate = 0.25

// eachCacheableVD replays up to maxVDs study VDs (events capped near
// maxEvents) and hands every cacheable one to fn: its accesses, its hottest
// block of blockSize clamped to the disk, and its latency-sampling seed. It
// returns the number of study VDs considered.
func (s *Study) eachCacheableVD(maxVDs, maxEvents int, blockSize int64, fn func(accesses []cache.Access, hotOff, hotLen, seed int64)) int {
	vds := s.studyVDs(maxVDs)
	for _, vd := range vds {
		accesses := s.vdAccesses(vd, maxEvents, s.Fleet.GenEvents)
		if len(accesses) == 0 {
			continue
		}
		capBytes := s.Fleet.Topology.VDs[vd].Capacity
		rep := cache.AnalyzeBlocks(accesses, capBytes, blockSize)
		if rep.Hottest < 0 || rep.AccessRate < cacheableAccessRate {
			continue
		}
		hotOff := rep.Hottest * blockSize
		fn(accesses, hotOff, min(blockSize, capBytes-hotOff), s.Fleet.Cfg.Seed+int64(vd))
	}
	return len(vds)
}

// Render prints Fig 7(a).
func (r Fig7aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7(a): cache hit ratio over %d busiest VDs (median, p10)\n", r.VDs)
	fmt.Fprintf(&b, "  %-9s %-16s %-16s %s\n", "block", "FIFO", "LRU", "FrozenHot")
	for i, mib := range r.BlockMiB {
		fmt.Fprintf(&b, "  %4d MiB  %5.1f%% (%5.1f%%)  %5.1f%% (%5.1f%%)  %5.1f%% (%5.1f%%)\n",
			mib,
			100*r.FIFOMed[i], 100*r.FIFOP10[i],
			100*r.LRUMed[i], 100*r.LRUP10[i],
			100*r.FCMed[i], 100*r.FCP10[i])
	}
	return b.String()
}

// Fig7bcResult compares CN-cache and BS-cache latency gains (Figures 7b/7c).
type Fig7bcResult struct {
	// Median (across study VDs) latency gains at p0/p50/p99, per op and
	// location. Gains are with/without ratios in (0,1]; lower is better.
	CNRead, CNWrite, BSRead, BSWrite [3]float64
	VDs                              int
	BlockMiB                         int64
}

// frozenBlockMiB is the frozen-cache block size of the paper's FC latency
// experiments, Fig 7(b)/(c) and the cache-deployment ablation.
const frozenBlockMiB = 2048

// Fig7bcLatencyGain evaluates frozen-cache latency gains at both deployment
// locations over the study VDs.
func (s *Study) Fig7bcLatencyGain(opt VDSampleOptions) Fig7bcResult {
	mustOpt(opt.Validate())
	maxVDs, maxEventsPerVD := opt.MaxVDs, opt.MaxEventsPerVD
	if maxVDs <= 0 {
		maxVDs = 24
	}
	if maxEventsPerVD <= 0 {
		maxEventsPerVD = 12000
	}
	model := latency.Default()
	var cnR, cnW, bsR, bsW [3][]float64
	// §7.3.2: caches are provisioned only for cacheable VDs.
	vds := s.eachCacheableVD(maxVDs, maxEventsPerVD, frozenBlockMiB<<20, func(accesses []cache.Access, hotOff, hotLen, seed int64) {
		for _, loc := range []latency.CacheLocation{latency.CNCache, latency.BSCache} {
			gains := latency.EvaluateGain(model, accesses, hotOff, hotLen, loc, seed)
			for _, g := range gains {
				dst := &cnR
				switch {
				case loc == latency.CNCache && g.Op == trace.OpWrite:
					dst = &cnW
				case loc == latency.BSCache && g.Op == trace.OpRead:
					dst = &bsR
				case loc == latency.BSCache && g.Op == trace.OpWrite:
					dst = &bsW
				}
				for i, v := range []float64{g.P0, g.P50, g.P99} {
					if !math.IsNaN(v) {
						dst[i] = append(dst[i], v)
					}
				}
			}
		}
	})
	res := Fig7bcResult{VDs: vds, BlockMiB: frozenBlockMiB}
	for i := 0; i < 3; i++ {
		res.CNRead[i] = stats.Median(cnR[i])
		res.CNWrite[i] = stats.Median(cnW[i])
		res.BSRead[i] = stats.Median(bsR[i])
		res.BSWrite[i] = stats.Median(bsW[i])
	}
	return res
}

// Render prints Fig 7(b)/(c).
func (r Fig7bcResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7(b,c): frozen-cache latency gain (%d MiB block, %d VDs; lower = better)\n", r.BlockMiB, r.VDs)
	fmt.Fprintf(&b, "  %-18s %-8s %-8s %s\n", "", "p0", "p50", "p99")
	row := func(name string, g [3]float64) {
		fmt.Fprintf(&b, "  %-18s %6.1f%% %6.1f%% %6.1f%%\n", name, 100*g[0], 100*g[1], 100*g[2])
	}
	row("CN-cache read", r.CNRead)
	row("CN-cache write", r.CNWrite)
	row("BS-cache read", r.BSRead)
	row("BS-cache write", r.BSWrite)
	return b.String()
}

// Fig7dResult is the cache-space-utilization comparison of Figure 7(d).
type Fig7dResult struct {
	BlockMiB []int64
	// Relative spreads (std/mean) of cacheable-VD counts per node, per
	// location: with uniformly-sized caches, std/mean is the fraction of
	// cache capacity stranded by provisioning for the mean. Raw stds are
	// kept for reference.
	CNSpread, BSSpread []float64
	CNStd, BSStd       []float64
	// CacheableVDs at each block size.
	Cacheable []int
	Threshold float64
}

// Fig7dSpaceUtilization counts cacheable VDs (hottest-block access rate at
// least cacheableAccessRate, using the generator's ground-truth hotspot
// model) per compute node and per BlockServer, and compares the spreads.
func (s *Study) Fig7dSpaceUtilization() Fig7dResult {
	top := s.Fleet.Topology
	res := Fig7dResult{Threshold: cacheableAccessRate}
	for _, mib := range BlockSizesMiB {
		blockSize := mib << 20
		nodeOfCN := make([]int, len(top.VDs))
		nodeOfBS := make([]int, len(top.VDs))
		cacheable := make([]bool, len(top.VDs))
		var n int
		for vd := range top.VDs {
			m := &s.Fleet.Models[vd]
			// Effective hottest-block access rate at this block size from
			// the generator's ground truth: hot IOs weighted by op mix,
			// scaled by how much of the hot range one block covers.
			coverage := 1.0
			if m.HotspotLen > blockSize {
				coverage = float64(blockSize) / float64(m.HotspotLen)
			}
			wOps := m.MeanWriteBps / m.WriteIOSize
			rOps := m.MeanReadBps / m.ReadIOSize
			var rate float64
			if wOps+rOps > 0 {
				rate = (wOps*m.HotAccessFrac + rOps*m.HotReadFrac) / (wOps + rOps) * coverage
			}
			ok := rate >= cacheableAccessRate
			cacheable[vd] = ok
			if ok {
				n++
			}
			nodeOfCN[vd] = int(top.VMs[top.VDs[vd].VM].Node)
			hotSeg := top.SegmentOfOffset(cluster.VDID(vd), clampOffset(m.HotspotOffset, top.VDs[vd].Capacity))
			nodeOfBS[vd] = int(s.Fleet.Seg2BS.BSOf(hotSeg))
		}
		cn := latency.CountCacheablePerNode(nodeOfCN, cacheable, len(top.Nodes))
		bs := latency.CountCacheablePerNode(nodeOfBS, cacheable, top.StorageNodes)
		cnF, bsF := toF(cn), toF(bs)
		res.BlockMiB = append(res.BlockMiB, mib)
		res.CNStd = append(res.CNStd, stats.StdDev(cnF))
		res.BSStd = append(res.BSStd, stats.StdDev(bsF))
		res.CNSpread = append(res.CNSpread, relSpread(cnF))
		res.BSSpread = append(res.BSSpread, relSpread(bsF))
		res.Cacheable = append(res.Cacheable, n)
	}
	return res
}

// relSpread returns std/mean, or NaN for an all-zero population.
func relSpread(xs []float64) float64 {
	m := stats.Mean(xs)
	if !(m > 0) {
		return math.NaN()
	}
	return stats.StdDev(xs) / m
}

func clampOffset(off, capacity int64) int64 {
	if off >= capacity {
		return capacity - 1
	}
	if off < 0 {
		return 0
	}
	return off
}

func toF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Render prints Fig 7(d).
func (r Fig7dResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7(d): cacheable-VD spread (threshold %.0f%%); lower spread = better provisioning\n", 100*r.Threshold)
	fmt.Fprintf(&b, "  %-9s %-12s %-12s %-10s %s\n", "block", "CN std/mean", "BS std/mean", "CN/BS", "cacheable VDs")
	for i, mib := range r.BlockMiB {
		ratio := math.NaN()
		if r.BSSpread[i] > 0 {
			ratio = r.CNSpread[i] / r.BSSpread[i]
		}
		fmt.Fprintf(&b, "  %4d MiB  %10.2f  %10.2f  %8.1fx  %d\n",
			mib, r.CNSpread[i], r.BSSpread[i], ratio, r.Cacheable[i])
	}
	return b.String()
}
