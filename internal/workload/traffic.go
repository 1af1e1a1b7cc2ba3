package workload

import (
	"math"

	"ebslab/internal/cluster"
	"ebslab/internal/xrand"
)

// Sample is one interval of traffic for some entity, expressed as rates.
type Sample struct {
	ReadBps   float64
	WriteBps  float64
	ReadIOPS  float64
	WriteIOPS float64
}

// Bps returns the summed read+write throughput of the sample.
func (s Sample) Bps() float64 { return s.ReadBps + s.WriteBps }

// burstState walks one direction's ON/OFF burst process. The process is:
// quiescent at baseline x mean, entering a burst with probability onProb per
// second; burst durations are geometric with the configured mean and burst
// magnitudes are bounded-Pareto multiples of the mean rate. Second-to-second
// lognormal noise rides on top. Heavy Pareto tails with tiny on-probability
// are what produce the enormous peak-to-average ratios of Table 3.
type burstState struct {
	prof        burstProfile
	onRemaining int
	onMag       float64
}

// maxBurstMult bounds burst magnitude so a single sample cannot overflow
// aggregate arithmetic; 2e4 still allows P2A ~ 10^4 windows.
const maxBurstMult = 2e4

// step advances one second and returns the rate multiplier.
func (b *burstState) step(rng *xrand.Rand) float64 {
	if b.onRemaining == 0 && rng.Float64() < b.prof.onProb {
		mean := b.prof.meanOnSec
		n := 1
		p := 1 / mean
		for rng.Float64() > p && n < 300 {
			n++
		}
		b.onRemaining = n
		b.onMag = boundedParetoF(rng.Float64(), b.prof.paretoXm, b.prof.paretoA, maxBurstMult)
	}
	mult := b.prof.baseline
	if b.onRemaining > 0 {
		mult = b.onMag
		b.onRemaining--
	}
	sigma := b.prof.noise
	noise := math.Exp(-sigma*sigma/2 + sigma*rng.NormFloat64())
	return mult * noise
}

// boundedParetoF is the inverse CDF of a Pareto(xm, a) truncated at hi,
// evaluated at u in [0,1).
func boundedParetoF(u, xm, a, hi float64) float64 {
	if hi <= xm {
		return xm
	}
	l := math.Pow(xm, a)
	h := math.Pow(hi, a)
	return math.Pow(-(u*h-u*l-h)/(h*l), -1/a)
}

// VDSeries generates the per-second traffic series of a VD for durSec
// seconds. The series is deterministic per (fleet seed, vd) and independent
// of any other entity's series.
func (f *Fleet) VDSeries(vd cluster.VDID, durSec int) []Sample {
	return f.VDSeriesInto(nil, vd, durSec)
}

// VDSeriesInto is VDSeries writing into buf (grown only if its capacity is
// short), so per-VD loops can reuse one buffer across the whole fleet.
func (f *Fleet) VDSeriesInto(buf []Sample, vd cluster.VDID, durSec int) []Sample {
	m := &f.Models[vd]
	rng := acquireRand(f.Cfg.Seed, tagVDSeries, uint64(vd))
	defer rng.Release()
	rb := burstState{prof: m.ReadBurst}
	wb := burstState{prof: m.WriteBurst}
	if cap(buf) < durSec {
		buf = make([]Sample, durSec)
	}
	out := buf[:durSec]
	for t := 0; t < durSec; t++ {
		r := m.MeanReadBps * rb.step(rng)
		w := m.MeanWriteBps * wb.step(rng)
		out[t] = Sample{
			ReadBps:   r,
			WriteBps:  w,
			ReadIOPS:  r / m.ReadIOSize,
			WriteIOPS: w / m.WriteIOSize,
		}
	}
	return out
}
