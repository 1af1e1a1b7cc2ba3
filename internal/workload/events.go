package workload

import (
	"math"
	"sync"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
	"ebslab/internal/xrand"
)

// Event is one block IO issued by a virtual disk.
type Event struct {
	TimeUS int64 // microseconds since window start
	Op     trace.Op
	Size   int32 // bytes, 4 KiB aligned
	Offset int64 // byte offset into the VD, 4 KiB aligned
	QP     cluster.QPID
}

// SectorSize is the alignment quantum of generated IOs.
const SectorSize = 4 << 10

// coldZipfS is the Zipf exponent of the cold-region popularity ranking.
const coldZipfS = 1.2

// permPool recycles region-permutation buffers across genEvents calls.
var permPool = sync.Pool{New: func() any { b := make([]int, 0, 64); return &b }}

// MaxEventsPerSec caps post-sampling event generation during extreme bursts
// so pathological configurations cannot hang a simulation.
const MaxEventsPerSec = 1 << 20

// GenEvents synthesizes the EBS-visible IO event stream of vd over
// [0, durSec) seconds, keeping one out of every sampleEvery IOs (pass 1 for
// the full stream, or trace.SampleRate to mimic the paper's 1/3200
// tracing). Events are delivered to fn in timestamp order.
//
// The LBA model implements §7's findings: a fraction HotAccessFrac of write
// IOs lands in a contiguous hot range (the "hottest block"), hot writes
// stream sequentially through it (LSM/journal style, which is why FIFO ~=
// LRU in Fig 7a), hot reads are mostly absorbed by the guest page cache
// (HotReadFrac), and cold IOs spread over Zipf-weighted regions of the
// remaining address space.
func (f *Fleet) GenEvents(vd cluster.VDID, durSec, sampleEvery int, fn func(Event)) {
	f.genEvents(vd, durSec, sampleEvery, false, nil, nil, fn)
}

// GenEventsBoostedOver is GenEvents with a per-second demand multiplier,
// consuming a caller-supplied VD series (as returned by VDSeries/VDSeriesInto
// for the same vd) instead of regenerating it. Second t draws its IO counts
// from boost(t) times the calibrated rates; the fault layer uses that for
// hot-tenant traffic storms. A nil boost (or one that always returns 1)
// reproduces GenEvents bit-exactly — the multiplier feeds the same Bernoulli
// draw, consuming the same RNG stream — and so does the supplied series: the
// traffic series and the event stream draw from independent RNG streams, so
// passing the series the engine already generated for throttling halves the
// series work per disk.
func (f *Fleet) GenEventsBoostedOver(vd cluster.VDID, series []Sample, sampleEvery int, boost func(sec int) float64, fn func(Event)) {
	f.genEvents(vd, len(series), sampleEvery, false, series, boost, fn)
}

// GenAppEvents synthesizes the *application-level* stream of vd: the IOs as
// the guest issues them, before its page cache absorbs hot-range re-reads.
// Hot reads use the full HotAccessFrac instead of the absorbed HotReadFrac.
// Feed this through guestcache.Filter to regenerate an EBS-visible stream
// from first principles.
func (f *Fleet) GenAppEvents(vd cluster.VDID, durSec, sampleEvery int, fn func(Event)) {
	f.genEvents(vd, durSec, sampleEvery, true, nil, nil, fn)
}

func (f *Fleet) genEvents(vd cluster.VDID, durSec, sampleEvery int, appLevel bool, series []Sample, boost func(sec int) float64, fn func(Event)) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	d := &f.Topology.VDs[vd]
	m := &f.Models[vd]
	if series == nil {
		series = f.VDSeries(vd, durSec)
	}
	rng := acquireRand(f.Cfg.Seed, tagEvents, uint64(vd))
	defer rng.Release()

	// Weight totals are hoisted out of the per-IO loop; sumWeights accumulates
	// in pickWeighted's exact order, so every draw is bit-identical.
	coldW := f.coldZipfWeights(m.ColdZipfBlocks)
	coldWTotal := sumWeights(coldW)
	qpWReadTotal := sumWeights(m.QPWeightsRead)
	qpWWriteTotal := sumWeights(m.QPWeightsWrite)
	// Shuffle region ranks so the hot cold-region is not always region 0.
	permBuf := permPool.Get().(*[]int)
	defer permPool.Put(permBuf)
	perm := permInto(rng, m.ColdZipfBlocks, *permBuf)
	*permBuf = perm
	regionLen := d.Capacity / int64(m.ColdZipfBlocks)
	if regionLen < SectorSize {
		regionLen = SectorSize
	}

	seqPos := m.HotspotOffset
	// Recent cold offsets: a fraction of cold accesses re-reference them
	// (temporal locality that an LRU can exploit but FIFO cannot).
	var recent [64]int64
	var recentN, recentIdx int

	for t, s := range series {
		b := 1.0
		if boost != nil {
			b = boost(t)
		}
		rc := xrand.CountFor(rng, b*s.ReadIOPS/float64(sampleEvery))
		wc := xrand.CountFor(rng, b*s.WriteIOPS/float64(sampleEvery))
		total := rc + wc
		if total == 0 {
			continue
		}
		if total > MaxEventsPerSec {
			scale := float64(MaxEventsPerSec) / float64(total)
			rc = int(float64(rc) * scale)
			wc = int(float64(wc) * scale)
			total = rc + wc
			if total == 0 {
				continue
			}
		}
		gapUS := 1e6 / float64(total)
		for k := 0; k < total; k++ {
			var ev Event
			// Choose op proportionally to remaining counts so the mix is
			// exact per second.
			if rng.Float64()*float64(rc+wc) < float64(rc) {
				ev.Op = trace.OpRead
				rc--
			} else {
				ev.Op = trace.OpWrite
				wc--
			}
			ev.TimeUS = int64(float64(t)*1e6 + float64(k)*gapUS)

			meanSize := m.ReadIOSize
			qpW, qpWTotal := m.QPWeightsRead, qpWReadTotal
			if ev.Op == trace.OpWrite {
				meanSize = m.WriteIOSize
				qpW, qpWTotal = m.QPWeightsWrite, qpWWriteTotal
			}
			ev.Size = drawIOSize(rng, meanSize)
			ev.QP = d.QPs[pickWeightedTotal(rng, qpW, qpWTotal)]

			hotFrac := m.HotAccessFrac
			if ev.Op == trace.OpRead && !appLevel {
				hotFrac = m.HotReadFrac
			}
			if rng.Float64() < hotFrac && m.HotspotLen > int64(ev.Size) {
				// Hot range access.
				if ev.Op == trace.OpWrite && m.HotWriteSeq {
					ev.Offset = seqPos
					seqPos += int64(ev.Size)
					if seqPos+int64(ev.Size) > m.HotspotOffset+m.HotspotLen {
						seqPos = m.HotspotOffset
					}
				} else {
					span := m.HotspotLen - int64(ev.Size)
					ev.Offset = m.HotspotOffset + AlignDown(int64(rng.Float64()*float64(span)))
				}
			} else if recentN > 0 && rng.Float64() < 0.25 {
				// Re-reference a recent cold offset (temporal locality).
				ev.Offset = recent[rng.Intn(recentN)]
			} else {
				// Cold access: Zipf-weighted region, uniform inside.
				region := perm[pickWeightedTotal(rng, coldW, coldWTotal)]
				base := int64(region) * regionLen
				span := regionLen - int64(ev.Size)
				if span < 0 {
					span = 0
				}
				ev.Offset = base + AlignDown(int64(rng.Float64()*float64(span)))
				recent[recentIdx] = ev.Offset
				recentIdx = (recentIdx + 1) % len(recent)
				if recentN < len(recent) {
					recentN++
				}
			}
			if ev.Offset+int64(ev.Size) > d.Capacity {
				ev.Offset = d.Capacity - int64(ev.Size)
				ev.Offset = AlignDown(ev.Offset)
			}
			if ev.Offset < 0 {
				ev.Offset = 0
			}
			fn(ev)
		}
	}
}

// drawIOSize draws a 4 KiB-aligned IO size around the mean with a lognormal
// spread, clamped to [4 KiB, 4 MiB].
func drawIOSize(rng *xrand.Rand, mean float64) int32 {
	s := mean * math.Exp(0.4*rng.NormFloat64())
	if s < SectorSize {
		s = SectorSize
	}
	if s > 4<<20 {
		s = 4 << 20
	}
	return int32(AlignDown(int64(s)))
}

// AlignDown rounds x down to the sector boundary (never below zero).
func AlignDown(x int64) int64 {
	a := x &^ (SectorSize - 1)
	if a < 0 {
		return 0
	}
	return a
}
