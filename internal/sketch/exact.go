package sketch

import (
	"math"
	"sort"

	"ebslab/internal/stats"
	"ebslab/internal/trace"
)

// ExactSkewness computes the same metric surface as Set.Skewness from a
// fully materialized dataset — the batch path the sketches approximate, and
// the reference side of every accuracy gate. Spatial and temporal metrics
// come from the full-scale metric rows (always exact); the latency/size
// quantiles and the active-entity counts come from the per-IO trace, so
// they equal the streamed view only when the run traced every IO
// (TraceSampleEvery=1). Metric rows are already scaled by the engine's
// event thinning, so cfg.Scale is not applied.
func ExactSkewness(ds *trace.Dataset, cfg Config) Skewness {
	cfg = cfg.withDefaults()

	// Spatial: per-VD and per-segment totals from the storage domain.
	vdBytes := make(map[uint64]float64)
	var vdRead, vdWrite float64
	segBytes := make(map[uint64]float64)
	secs := ds.DurationSec
	for i := range ds.Storage {
		if int(ds.Storage[i].Sec) >= secs {
			secs = int(ds.Storage[i].Sec) + 1
		}
	}
	secR := make([]float64, secs)
	secW := make([]float64, secs)
	for i := range ds.Storage {
		m := &ds.Storage[i]
		vdBytes[uint64(m.VD)] += m.Bps()
		segBytes[uint64(m.Segment)] += m.Bps()
		vdRead += m.ReadBps
		vdWrite += m.WriteBps
		secR[m.Sec] += m.ReadBps
		secW[m.Sec] += m.WriteBps
	}
	perVD := make([]float64, 0, len(vdBytes))
	for _, vd := range sortedKeys(vdBytes) {
		perVD = append(perVD, vdBytes[vd])
	}
	secT := make([]float64, secs)
	for i := range secT {
		secT[i] = secR[i] + secW[i]
	}

	out := Skewness{
		IOs:     uint64(math.Round(sumIOPS(ds))),
		Bytes:   vdRead + vdWrite,
		CCR1:    stats.CCR(perVD, 0.01),
		CCR10:   stats.CCR(perVD, 0.10),
		NormCoV: stats.NormCoV(perVD),
		WrRatio: stats.WrRatio(vdWrite, vdRead),

		P2ARead:  stats.P2A(secR),
		P2AWrite: stats.P2A(secW),
		P2ATotal: stats.P2A(secT),
		EWMABps:  ewma(secT, ewmaHalfLifeSec),
		MeanRAR:  meanRAR(secT, cfg.TputCapSum),

		HotVDs:      topEntries(vdBytes, cfg.TopK),
		HotSegments: topEntries(segBytes, cfg.TopK),
	}

	// Distributions and cardinality from the per-IO trace.
	lat := make([]float64, 0, len(ds.Trace))
	sizes := make([]float64, 0, len(ds.Trace))
	blocks := make(map[uint64]struct{})
	segSeen := make(map[uint64]struct{})
	for i := range ds.Trace {
		r := &ds.Trace[i]
		lat = append(lat, r.TotalLatency())
		sizes = append(sizes, float64(r.Size))
		blocks[blockKey(uint64(r.VD), r.Offset)] = struct{}{}
		segSeen[uint64(r.Segment)] = struct{}{}
	}
	latQ, sizeQ := stats.Quantiles(lat, 0.5, 0.99), stats.Quantiles(sizes, 0.5, 0.99)
	out.LatencyP50, out.LatencyP99 = latQ[0], latQ[1]
	out.SizeP50, out.SizeP99 = sizeQ[0], sizeQ[1]
	out.ActiveBlocks = float64(len(blocks))
	out.ActiveSegments = float64(len(segSeen))
	return out
}

// sumIOPS totals the (scaled) operation counts of the storage rows.
func sumIOPS(ds *trace.Dataset) float64 {
	var s float64
	for i := range ds.Storage {
		s += ds.Storage[i].IOPS()
	}
	return s
}

// ewma mirrors RateMeter.EWMA over a plain series.
func ewma(xs []float64, halfLifeSec float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if halfLifeSec < 1 {
		halfLifeSec = 1
	}
	decay := math.Exp2(-1 / halfLifeSec)
	v := xs[0]
	for _, x := range xs[1:] {
		v = decay*v + (1-decay)*x
	}
	return v
}

// meanRAR mirrors RateMeter.MeanRAR over a plain series.
func meanRAR(xs []float64, capSum float64) float64 {
	if capSum <= 0 || len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range xs {
		r := (capSum - v) / capSum
		if r < 0 {
			r = 0
		}
		sum += r
	}
	return sum / float64(len(xs))
}

// topEntries ranks a weight map's keys by (weight desc, key asc) and
// returns the top k as error-free entries with rounded integer counts.
func topEntries(weights map[uint64]float64, k int) []Entry {
	out := make([]Entry, 0, len(weights))
	for key, w := range weights {
		out = append(out, Entry{Key: key, Count: uint64(math.Round(w))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
