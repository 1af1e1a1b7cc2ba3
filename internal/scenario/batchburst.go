package scenario

import (
	"fmt"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
	"ebslab/internal/xrand"
)

// batchBurstConfig shapes the batchburst scenario: a cohort of VDs fires
// synchronized sequential scans in periodic waves — the batch-parallel
// pattern where thousands of workers start the same job at the same minute —
// over a near-idle mixed baseline. With Stagger 0 every cohort member's wave
// lands on the same seconds, producing the fleet-wide demand spikes the
// paper's burstiness metrics (P2A, CoV) are built to expose.
type batchBurstConfig struct {
	// WavePeriodSec is the scan wave period (default 30).
	WavePeriodSec int
	// WaveWidthSec is how long each wave lasts (default 6).
	WaveWidthSec int
	// StaggerSec spreads per-VD wave starts uniformly over this many
	// seconds (default 0 = fully synchronized).
	StaggerSec int
	// ScanBps is each scanning VD's sequential read rate during a wave
	// (default 64 MiB/s).
	ScanBps float64
	// IOSizeKB is the scan IO size in KiB (default 256).
	IOSizeKB int
	// Cohort is the fraction of VDs participating in waves (default 1.0).
	Cohort float64
	// Idle scales the fleet's native mean rates for the between-wave
	// baseline (default 0.05).
	Idle float64
}

func buildBatchBurst(sp Spec) (config, error) {
	c := batchBurstConfig{WavePeriodSec: 30, WaveWidthSec: 6, ScanBps: 64 << 20, IOSizeKB: 256, Cohort: 1.0, Idle: 0.05}
	p := newParams(sp)
	p.Int("wave", &c.WavePeriodSec)
	p.Int("width", &c.WaveWidthSec)
	p.Int("stagger", &c.StaggerSec)
	p.Float("scanbps", &c.ScanBps)
	p.Int("iosizekb", &c.IOSizeKB)
	p.Float("cohort", &c.Cohort)
	p.Float("idle", &c.Idle)
	if err := p.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate rejects parameter values that have no meaning.
func (c batchBurstConfig) Validate() error {
	switch {
	case c.WavePeriodSec < 2:
		return fmt.Errorf("scenario: batchburst wave %d, want >= 2", c.WavePeriodSec)
	case c.WaveWidthSec < 1 || c.WaveWidthSec >= c.WavePeriodSec:
		return fmt.Errorf("scenario: batchburst width %d, want in [1, wave)", c.WaveWidthSec)
	case c.StaggerSec < 0 || c.StaggerSec >= c.WavePeriodSec:
		return fmt.Errorf("scenario: batchburst stagger %d, want in [0, wave)", c.StaggerSec)
	case c.ScanBps <= 0 || c.ScanBps > 4<<30:
		return fmt.Errorf("scenario: batchburst scanbps %g, want in (0, 4 GiB/s]", c.ScanBps)
	case c.IOSizeKB < 4 || c.IOSizeKB > 4096:
		return fmt.Errorf("scenario: batchburst iosizekb %d, want in [4, 4096]", c.IOSizeKB)
	case c.Cohort <= 0 || c.Cohort > 1:
		return fmt.Errorf("scenario: batchburst cohort %g, want in (0, 1]", c.Cohort)
	case c.Idle < 0 || c.Idle > 1:
		return fmt.Errorf("scenario: batchburst idle %g, want in [0, 1]", c.Idle)
	}
	return nil
}

func (c batchBurstConfig) bind(sp Spec, f *workload.Fleet) (Workload, error) {
	return &batchBurst{spec: sp, cfg: c, fleet: f}, nil
}

// batchBurst synthesizes its own event stream: sequential scan reads during
// waves, a thin uniform mixed baseline otherwise. All per-VD state (RNG,
// scan position) lives inside the GenEvents call.
type batchBurst struct {
	spec  Spec
	cfg   batchBurstConfig
	fleet *workload.Fleet
}

func (b *batchBurst) Name() string           { return b.spec.Name }
func (b *batchBurst) Spec() string           { return b.spec.String() }
func (b *batchBurst) Fleet() *workload.Fleet { return b.fleet }

// member reports cohort membership and the VD's wave phase offset, both
// pure hashes of (seed, vd).
func (b *batchBurst) member(vd cluster.VDID) (bool, int) {
	in := hash01(b.fleet.Cfg.Seed, tagBurstMember, uint64(vd)) < b.cfg.Cohort
	phase := 0
	if b.cfg.StaggerSec > 0 {
		phase = int(hash01(b.fleet.Cfg.Seed, tagBurstMember, uint64(vd)+1<<32) * float64(b.cfg.StaggerSec+1))
	}
	return in, phase
}

// scanIOSize is the wave IO size in bytes.
func (b *batchBurst) scanIOSize() int32 { return int32(b.cfg.IOSizeKB) << 10 }

// inWave reports whether second t falls inside a wave for phase offset ph.
func (b *batchBurst) inWave(t, ph int) bool {
	return (t+b.cfg.WavePeriodSec-ph%b.cfg.WavePeriodSec)%b.cfg.WavePeriodSec < b.cfg.WaveWidthSec
}

func (b *batchBurst) SeriesInto(buf []workload.Sample, vd cluster.VDID, durSec int) []workload.Sample {
	m := &b.fleet.Models[vd]
	in, ph := b.member(vd)
	ioSize := float64(b.scanIOSize())
	if cap(buf) < durSec {
		buf = make([]workload.Sample, durSec)
	}
	out := buf[:durSec]
	base := workload.Sample{
		ReadBps:  b.cfg.Idle * m.MeanReadBps,
		WriteBps: b.cfg.Idle * m.MeanWriteBps,
	}
	base.ReadIOPS = base.ReadBps / m.ReadIOSize
	base.WriteIOPS = base.WriteBps / m.WriteIOSize
	for t := 0; t < durSec; t++ {
		s := base
		if in && b.inWave(t, ph) {
			s.ReadBps += b.cfg.ScanBps
			s.ReadIOPS += b.cfg.ScanBps / ioSize
		}
		out[t] = s
	}
	return out
}

// GenEvents walks the series second by second: during waves the scan
// marches sequentially from a seed-derived start offset (wrapping inside
// the VD), baseline IOs land uniformly. Counts honor the chaos boost and
// the engine's event thinning exactly like the fleet generator.
func (b *batchBurst) GenEvents(vd cluster.VDID, series []workload.Sample, sampleEvery int, boost func(sec int) float64, emit func(workload.Event)) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	d := &b.fleet.Topology.VDs[vd]
	m := &b.fleet.Models[vd]
	in, ph := b.member(vd)
	// The VD's whole stream lives in this call, so re-running a VD
	// reproduces it bit for bit.
	rng := xrand.Get(subSeed(b.fleet.Cfg.Seed, tagBurstEvents, uint64(vd)))
	defer rng.Release()
	scanSize := b.scanIOSize()
	if int64(scanSize) > d.Capacity {
		scanSize = int32(workload.AlignDown(d.Capacity))
	}
	scanSpan := d.Capacity - int64(scanSize)
	scanPos := workload.AlignDown(int64(rng.Float64() * float64(scanSpan)))
	scanIOPS := b.cfg.ScanBps / float64(scanSize)

	baseSize := func(mean float64) int32 {
		s := int64(mean)
		if s < workload.SectorSize {
			s = workload.SectorSize
		}
		if s > 4<<20 {
			s = 4 << 20
		}
		return int32(workload.AlignDown(s))
	}
	rdSize, wrSize := baseSize(m.ReadIOSize), baseSize(m.WriteIOSize)

	for t, s := range series {
		mult := 1.0
		if boost != nil {
			mult = boost(t)
		}
		wave := in && b.inWave(t, ph)
		scanLambda := 0.0
		if wave {
			scanLambda = scanIOPS
		}
		sc := xrand.CountFor(rng, mult*scanLambda/float64(sampleEvery))
		rc := xrand.CountFor(rng, mult*(s.ReadIOPS-scanLambda)/float64(sampleEvery))
		wc := xrand.CountFor(rng, mult*s.WriteIOPS/float64(sampleEvery))
		total := sc + rc + wc
		if total == 0 {
			continue
		}
		if total > workload.MaxEventsPerSec {
			scale := float64(workload.MaxEventsPerSec) / float64(total)
			sc = int(float64(sc) * scale)
			rc = int(float64(rc) * scale)
			wc = int(float64(wc) * scale)
			total = sc + rc + wc
			if total == 0 {
				continue
			}
		}
		gapUS := 1e6 / float64(total)
		for k := 0; k < total; k++ {
			var ev workload.Event
			ev.TimeUS = int64(float64(t)*1e6 + float64(k)*gapUS)
			// Scan IOs first within the second: the synchronized front is
			// the point of the scenario.
			switch {
			case sc > 0:
				sc--
				ev.Op = trace.OpRead
				ev.Size = scanSize
				ev.Offset = scanPos
				scanPos += int64(scanSize)
				if scanPos > scanSpan {
					scanPos = 0
				}
			case rc > 0 && (wc == 0 || rng.Float64()*float64(rc+wc) < float64(rc)):
				rc--
				ev.Op = trace.OpRead
				ev.Size = rdSize
				ev.Offset = b.uniformOffset(rng, d.Capacity, rdSize)
			default:
				wc--
				ev.Op = trace.OpWrite
				ev.Size = wrSize
				ev.Offset = b.uniformOffset(rng, d.Capacity, wrSize)
			}
			ev.QP = d.QPs[rng.Intn(len(d.QPs))]
			emit(ev)
		}
	}
}

// uniformOffset draws an aligned offset whose IO fits inside the VD.
func (b *batchBurst) uniformOffset(rng *xrand.Rand, capacity int64, size int32) int64 {
	span := capacity - int64(size)
	if span <= 0 {
		return 0
	}
	return workload.AlignDown(int64(rng.Float64() * float64(span)))
}
