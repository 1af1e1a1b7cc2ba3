package balancer

import (
	"math"

	"ebslab/internal/cluster"
)

// FrequentMigrationProportion implements §6.1.1's metric: time is divided
// into windows of windowPeriods periods; a migration is "frequent" when its
// BlockServer had both an incoming and an outgoing migration within the same
// window (segments bouncing in and straight back out). The result is the
// fraction of all migrations that are frequent; NaN when there were none.
func FrequentMigrationProportion(migs []Migration, nBS, windowPeriods int) float64 {
	if len(migs) == 0 {
		return math.NaN()
	}
	if windowPeriods < 1 {
		windowPeriods = 1
	}
	type cell struct{ in, out bool }
	// state[window][bs]
	state := make(map[int]map[cluster.StorageNodeID]*cell)
	get := func(w int, b cluster.StorageNodeID) *cell {
		m, ok := state[w]
		if !ok {
			m = make(map[cluster.StorageNodeID]*cell)
			state[w] = m
		}
		c, ok := m[b]
		if !ok {
			c = &cell{}
			m[b] = c
		}
		return c
	}
	for _, m := range migs {
		w := m.Period / windowPeriods
		get(w, m.From).out = true
		get(w, m.To).in = true
	}
	var frequent int
	for _, m := range migs {
		w := m.Period / windowPeriods
		if c := get(w, m.From); c.in && c.out {
			frequent++
			continue
		}
		if c := get(w, m.To); c.in && c.out {
			frequent++
		}
	}
	return float64(frequent) / float64(len(migs))
}

// OutMigrationIntervals implements §6.1.2's metric: for every BlockServer,
// the gaps (in periods) between consecutive periods in which it exported
// segments, normalized by the observation length. Longer intervals mean the
// balancer's placements stay good for longer.
func OutMigrationIntervals(migs []Migration, nPeriods int) []float64 {
	if nPeriods <= 0 {
		return nil
	}
	outPeriods := make(map[cluster.StorageNodeID][]int)
	for _, m := range migs {
		ps := outPeriods[m.From]
		if len(ps) == 0 || ps[len(ps)-1] != m.Period {
			outPeriods[m.From] = append(ps, m.Period)
		}
	}
	var out []float64
	for _, ps := range outPeriods {
		for i := 1; i < len(ps); i++ {
			out = append(out, float64(ps[i]-ps[i-1])/float64(nPeriods))
		}
	}
	return out
}

// MigrationCount returns how many segment moves occurred, split by pass.
func MigrationCount(migs []Migration) (write, read int) {
	for _, m := range migs {
		if m.Read {
			read++
		} else {
			write++
		}
	}
	return write, read
}

// BSFutureMatrix computes per-BS per-period traffic under a fixed placement:
// the per-BS series the prediction and read/write-CoV studies run over.
// metric selects the value per segment-period (for the paper's balancer, the
// write bytes).
func BSFutureMatrix(seg2bs *cluster.SegmentMap, segTraffic [][]RW, metric func(RW) float64) [][]float64 {
	nBS := seg2bs.NumBS()
	var nPeriods int
	if len(segTraffic) > 0 {
		nPeriods = len(segTraffic[0])
	}
	out := make([][]float64, nBS)
	for b := range out {
		out[b] = make([]float64, nPeriods)
	}
	for seg, rows := range segTraffic {
		b := seg2bs.BSOf(cluster.SegmentID(seg))
		for p, rw := range rows {
			out[b][p] += metric(rw)
		}
	}
	return out
}
