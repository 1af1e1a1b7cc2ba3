package cache

import (
	"math"

	"ebslab/internal/stats"
)

// BlockReport summarizes the hottest fixed-size block of one VD (Figure 6).
type BlockReport struct {
	// Hottest is the index of the most-accessed block.
	Hottest int64
	// AccessRate is the fraction of IOs landing in the hottest block
	// (Fig 6a).
	AccessRate float64
	// BlockShare is blockSize / capacity — the fraction of the LBA the
	// hottest block occupies (Fig 6b).
	BlockShare float64
	// WrRatio is the normalized write-to-read ratio of IOs to the hottest
	// block (Fig 6c).
	WrRatio float64
}

// AnalyzeBlocks divides a VD's LBA space into fixed-size blocks and finds
// the hottest one. Each IO is attributed to the block containing its start
// offset (IOs are far smaller than the study's 64 MiB+ blocks).
func AnalyzeBlocks(accesses []Access, capacity, blockSize int64) BlockReport {
	rep := BlockReport{Hottest: -1}
	if capacity <= 0 || blockSize <= 0 || len(accesses) == 0 {
		rep.AccessRate = math.NaN()
		rep.WrRatio = math.NaN()
		rep.BlockShare = math.NaN()
		return rep
	}
	nBlocks := (capacity + blockSize - 1) / blockSize
	counts := make([]int, nBlocks)
	writes := make([]float64, nBlocks)
	reads := make([]float64, nBlocks)
	for _, a := range accesses {
		b := a.Offset / blockSize
		if b < 0 || b >= nBlocks {
			continue
		}
		counts[b]++
		if a.Write {
			writes[b]++
		} else {
			reads[b]++
		}
	}
	hot, hotCount := int64(-1), 0
	for b, c := range counts {
		if c > hotCount {
			hot, hotCount = int64(b), c
		}
	}
	rep.Hottest = hot
	if hot < 0 {
		rep.AccessRate = math.NaN()
		rep.WrRatio = math.NaN()
	} else {
		rep.AccessRate = float64(hotCount) / float64(len(accesses))
		rep.WrRatio = stats.WrRatio(writes[hot], reads[hot])
	}
	share := float64(blockSize) / float64(capacity)
	if share > 1 {
		share = 1
	}
	rep.BlockShare = share
	return rep
}

// HotRate implements Fig 6(d)'s temporal-continuity metric: given the
// hottest block identified over the whole window with overall access rate
// p, recompute the block's access rate in short windows and return the
// fraction of (non-idle) windows where it meets or exceeds p.
func HotRate(accesses []Access, blockSize int64, hottest int64, overallRate float64, windowUS int64) float64 {
	if len(accesses) == 0 || hottest < 0 || windowUS <= 0 || math.IsNaN(overallRate) {
		return math.NaN()
	}
	type agg struct{ hot, total int }
	windows := make(map[int64]*agg)
	for _, a := range accesses {
		w := a.TimeUS / windowUS
		g := windows[w]
		if g == nil {
			g = &agg{}
			windows[w] = g
		}
		g.total++
		if a.Offset/blockSize == hottest {
			g.hot++
		}
	}
	var meets, counted int
	for _, g := range windows {
		if g.total == 0 {
			continue
		}
		counted++
		if float64(g.hot)/float64(g.total) >= overallRate {
			meets++
		}
	}
	if counted == 0 {
		return math.NaN()
	}
	return float64(meets) / float64(counted)
}
