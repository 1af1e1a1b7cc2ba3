package latency

import (
	"math"
	"math/rand"
	"testing"

	"ebslab/internal/cache"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
)

// draw is one uncached IO drawn on the compiled table.
func draw(tab *Table, rng *rand.Rand, op trace.Op, size int32) [trace.NumStages]float32 {
	var lat [trace.NumStages]float32
	tab.SampleInto(rng, op, size, &lat)
	return lat
}

func TestSampleAllStagesPositive(t *testing.T) {
	tab := Default().Compile()
	rng := rand.New(rand.NewSource(1))
	for _, op := range []trace.Op{trace.OpRead, trace.OpWrite} {
		s := draw(tab, rng, op, 4096)
		for st, v := range s {
			if v <= 0 {
				t.Fatalf("%v stage %d latency %v", op, st, v)
			}
		}
	}
}

func TestWritesSlowerAtChunkServer(t *testing.T) {
	tab := Default().Compile()
	rng := rand.New(rand.NewSource(2))
	var readCS, writeCS float64
	const n = 3000
	for i := 0; i < n; i++ {
		readCS += float64(draw(tab, rng, trace.OpRead, 16<<10)[trace.StageChunkServer])
		writeCS += float64(draw(tab, rng, trace.OpWrite, 16<<10)[trace.StageChunkServer])
	}
	if writeCS <= readCS {
		t.Fatalf("mean CS write %v not above read %v", writeCS/n, readCS/n)
	}
}

func TestLargerIOsSlower(t *testing.T) {
	tab := Default().Compile()
	rng := rand.New(rand.NewSource(3))
	var small, large float64
	const n = 2000
	for i := 0; i < n; i++ {
		small += Total(draw(tab, rng, trace.OpRead, 4<<10))
		large += Total(draw(tab, rng, trace.OpRead, 1<<20))
	}
	if large <= small {
		t.Fatalf("1MiB mean %v not above 4KiB mean %v", large/n, small/n)
	}
}

func TestCNCacheHitSkipsStorageStages(t *testing.T) {
	lat := draw(Default().Compile(), rand.New(rand.NewSource(4)), trace.OpRead, 4096)
	s := served(lat, CNCache, true)
	for _, st := range []trace.Stage{trace.StageFrontendNet, trace.StageBlockServer, trace.StageBackendNet, trace.StageChunkServer} {
		if s[st] != 0 {
			t.Fatalf("CN-cache hit paid stage %v: %v", st, s[st])
		}
	}
	if s[trace.StageComputeNode] != lat[trace.StageComputeNode]+cacheAccessUS {
		t.Fatalf("CN stage %v should be the drawn %v plus the cache access cost", s[trace.StageComputeNode], lat[trace.StageComputeNode])
	}
}

func TestBSCacheHitSkipsBackendOnly(t *testing.T) {
	lat := draw(Default().Compile(), rand.New(rand.NewSource(5)), trace.OpRead, 4096)
	s := served(lat, BSCache, true)
	if s[trace.StageBackendNet] != 0 || s[trace.StageChunkServer] != 0 {
		t.Fatalf("BS-cache hit paid backend stages: %v", s)
	}
	if s[trace.StageComputeNode] != lat[trace.StageComputeNode] || s[trace.StageFrontendNet] != lat[trace.StageFrontendNet] {
		t.Fatalf("BS-cache hit should still traverse the front half as drawn: %v, drawn %v", s, lat)
	}
	if s[trace.StageBlockServer] != lat[trace.StageBlockServer]+cacheAccessUS {
		t.Fatalf("BS stage %v should be the drawn %v plus the cache access cost", s[trace.StageBlockServer], lat[trace.StageBlockServer])
	}
}

func TestMissPaysFullPath(t *testing.T) {
	lat := draw(Default().Compile(), rand.New(rand.NewSource(6)), trace.OpRead, 4096)
	for _, loc := range []CacheLocation{NoCache, CNCache, BSCache} {
		if s := served(lat, loc, false); s != lat {
			t.Fatalf("%v miss %v differs from the full draw %v", loc, s, lat)
		}
	}
	for st, v := range lat {
		if v <= 0 {
			t.Fatalf("miss skipped stage %d", st)
		}
	}
}

func TestCacheLocationString(t *testing.T) {
	if NoCache.String() != "none" || CNCache.String() != "cn-cache" || BSCache.String() != "bs-cache" {
		t.Fatal("CacheLocation strings wrong")
	}
	if CacheLocation(9).String() != "unknown" {
		t.Fatal("unknown location string wrong")
	}
}

// hotspotAccesses builds a write-dominant hotspot population shaped like the
// paper's hottest blocks: ~25% of IOs in the 64 MiB hot range (mostly
// writes), the rest spread over 4 GiB.
func hotspotAccesses(n int, seed int64) []cache.Access {
	rng := rand.New(rand.NewSource(seed))
	hotStart := int64(256 << 20)
	out := make([]cache.Access, 0, n)
	for i := 0; i < n; i++ {
		a := cache.Access{Size: 16 << 10, TimeUS: int64(i) * 100}
		if rng.Float64() < 0.25 {
			a.Offset = hotStart + rng.Int63n((64<<20)/cache.PageSize-4)*cache.PageSize
			a.Write = rng.Float64() < 0.9
		} else {
			a.Offset = rng.Int63n((4<<30)/cache.PageSize-4) * cache.PageSize
			a.Write = rng.Float64() < 0.5
		}
		out = append(out, a)
	}
	return out
}

func TestEvaluateGainCNBeatsBSForWrites(t *testing.T) {
	m := Default()
	accesses := hotspotAccesses(4000, 7)
	hotStart := int64(256 << 20)
	cn := EvaluateGain(m, accesses, hotStart, 64<<20, CNCache, 1)
	bs := EvaluateGain(m, accesses, hotStart, 64<<20, BSCache, 1)
	var cnW, bsW GainResult
	for _, g := range cn {
		if g.Op == trace.OpWrite {
			cnW = g
		}
	}
	for _, g := range bs {
		if g.Op == trace.OpWrite {
			bsW = g
		}
	}
	if !(cnW.P50 < bsW.P50) {
		t.Fatalf("CN-cache p50 write gain %v not better than BS-cache %v", cnW.P50, bsW.P50)
	}
	if !(cnW.P50 < 1) {
		t.Fatalf("CN-cache p50 write gain %v should beat no-cache", cnW.P50)
	}
	if cnW.HitRatio <= 0.2 {
		t.Fatalf("hit ratio %v too low for a 25%% hotspot of 90%% writes", cnW.HitRatio)
	}
	// p99 is dominated by cold long-tail IOs; caching the hotspot should
	// barely move it (the paper's observation).
	if cnW.P99 < 0.5 {
		t.Fatalf("p99 gain %v implausibly strong", cnW.P99)
	}
}

func TestEvaluateGainEmpty(t *testing.T) {
	m := Default()
	res := EvaluateGain(m, nil, 0, 64<<20, CNCache, 1)
	for _, g := range res {
		if !math.IsNaN(g.P50) || g.Count != 0 {
			t.Fatalf("empty gain = %+v", g)
		}
	}
}

func TestEvaluateHybridGain(t *testing.T) {
	m := Default()
	accesses := hotspotAccesses(4000, 13)
	hotStart := int64(256 << 20)
	hybrid := EvaluateHybridGain(m, accesses, hotStart, 64<<20, 0.25, 1)
	cn := EvaluateGain(m, accesses, hotStart, 64<<20, CNCache, 1)
	bs := EvaluateGain(m, accesses, hotStart, 64<<20, BSCache, 1)

	pick := func(rs []GainResult, op trace.Op) GainResult {
		for _, g := range rs {
			if g.Op == op {
				return g
			}
		}
		t.Fatal("op missing")
		return GainResult{}
	}
	hw, cw, bw := pick(hybrid, trace.OpWrite), pick(cn, trace.OpWrite), pick(bs, trace.OpWrite)
	// The hybrid's hit ratio matches the full-coverage caches (BS backs the
	// whole hot range), and its p50 gain sits between CN-only and BS-only.
	if math.Abs(hw.HitRatio-bw.HitRatio) > 0.01 {
		t.Errorf("hybrid hit ratio %v differs from BS coverage %v", hw.HitRatio, bw.HitRatio)
	}
	if !(hw.P50 <= bw.P50+0.02) {
		t.Errorf("hybrid p50 %v worse than BS-only %v", hw.P50, bw.P50)
	}
	if !(hw.P50 >= cw.P50-0.02) {
		t.Errorf("hybrid p50 %v better than CN-only %v (impossible at quarter size)", hw.P50, cw.P50)
	}
	// Degenerate cnFrac handling.
	deg := EvaluateHybridGain(m, accesses, hotStart, 64<<20, -1, 1)
	if len(deg) != 2 {
		t.Fatal("degenerate cnFrac run broken")
	}
}

func TestCountCacheablePerNode(t *testing.T) {
	nodeOf := []int{0, 0, 1, 2, 2, 2, -1}
	cacheable := []bool{true, false, true, true, true, false, true}
	counts := CountCacheablePerNode(nodeOf, cacheable, 3)
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	// A flat assignment has lower spread than a concentrated one.
	flat := CountCacheablePerNode([]int{0, 1, 2}, []bool{true, true, true}, 3)
	conc := CountCacheablePerNode([]int{0, 0, 0}, []bool{true, true, true}, 3)
	fs := make([]float64, 3)
	cs := make([]float64, 3)
	for i := 0; i < 3; i++ {
		fs[i], cs[i] = float64(flat[i]), float64(conc[i])
	}
	if stats.StdDev(fs) >= stats.StdDev(cs) {
		t.Fatal("spread ordering wrong")
	}
}

func TestTotal(t *testing.T) {
	var s [trace.NumStages]float32
	s[0], s[4] = 1.5, 2.5
	if Total(s) != 4 {
		t.Fatalf("Total = %v", Total(s))
	}
}
