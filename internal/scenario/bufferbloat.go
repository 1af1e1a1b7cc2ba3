package scenario

import (
	"fmt"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// bufferbloatConfig shapes the bufferbloat scenario: every VD oscillates
// between near-idle and saturation on a square wave, overdriving a deep
// device-side queue whose standing backlog adds a queue-depth-aware latency
// term at the BlockServer stage. The per-VD wave phase is seed-derived, so
// the fleet's oscillations interleave rather than beat in lockstep.
type bufferbloatConfig struct {
	// PeriodSec is the wave period (default 24).
	PeriodSec int
	// Duty is the saturated fraction of each period (default 0.35).
	Duty float64
	// Overdrive is the saturated demand as a multiple of the device drain
	// rate (default 2.5; must exceed 1 for a queue to build).
	Overdrive float64
	// Drain is the device service rate as a fraction of the VD throughput
	// cap (default 1.0).
	Drain float64
	// QueueSec caps the device queue at this many seconds of drain — the
	// "deep queue" that turns overload into seconds of sojourn time instead
	// of loss (default 4).
	QueueSec float64
	// Idle is the off-phase demand as a fraction of drain (default 0.02).
	Idle float64
}

func buildBufferbloat(sp Spec) (config, error) {
	c := bufferbloatConfig{PeriodSec: 24, Duty: 0.35, Overdrive: 2.5, Drain: 1.0, QueueSec: 4, Idle: 0.02}
	p := newParams(sp)
	p.Int("period", &c.PeriodSec)
	p.Float("duty", &c.Duty)
	p.Float("overdrive", &c.Overdrive)
	p.Float("drain", &c.Drain)
	p.Float("queue", &c.QueueSec)
	p.Float("idle", &c.Idle)
	if err := p.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate rejects parameter values that have no meaning.
func (c bufferbloatConfig) Validate() error {
	switch {
	case c.PeriodSec < 2:
		return fmt.Errorf("scenario: bufferbloat period %d, want >= 2", c.PeriodSec)
	case c.Duty <= 0 || c.Duty >= 1:
		return fmt.Errorf("scenario: bufferbloat duty %g, want in (0, 1)", c.Duty)
	case c.Overdrive <= 1:
		return fmt.Errorf("scenario: bufferbloat overdrive %g, want > 1 (a queue only builds past saturation)", c.Overdrive)
	case c.Drain <= 0 || c.Drain > 4:
		return fmt.Errorf("scenario: bufferbloat drain %g, want in (0, 4]", c.Drain)
	case c.QueueSec <= 0 || c.QueueSec > 60:
		return fmt.Errorf("scenario: bufferbloat queue %g, want in (0, 60]", c.QueueSec)
	case c.Idle < 0 || c.Idle >= 1:
		return fmt.Errorf("scenario: bufferbloat idle %g, want in [0, 1)", c.Idle)
	}
	return nil
}

func (c bufferbloatConfig) bind(sp Spec, f *workload.Fleet) (Workload, error) {
	return &bufferbloat{spec: sp, cfg: c, fleet: f}, nil
}

// bufferbloat drives the fleet's own event generator (hot/cold LBA model,
// QP weights, IO sizes all stay calibrated) over a replaced demand series,
// and implements DelayModel for the device-queue sojourn term.
type bufferbloat struct {
	spec  Spec
	cfg   bufferbloatConfig
	fleet *workload.Fleet
}

func (b *bufferbloat) Name() string           { return b.spec.Name }
func (b *bufferbloat) Spec() string           { return b.spec.String() }
func (b *bufferbloat) Fleet() *workload.Fleet { return b.fleet }

// drainBps is vd's device service rate in bytes/s.
func (b *bufferbloat) drainBps(vd cluster.VDID) float64 {
	return b.cfg.Drain * b.fleet.Topology.VDs[vd].ThroughputCap
}

// saturated reports whether vd's wave is in its ON phase at second t. The
// phase offset is a pure hash of (seed, vd).
func (b *bufferbloat) saturated(vd cluster.VDID, t int) bool {
	phase := int(hash01(b.fleet.Cfg.Seed, tagBloatPhase, uint64(vd)) * float64(b.cfg.PeriodSec))
	pos := (t + phase) % b.cfg.PeriodSec
	return float64(pos) < b.cfg.Duty*float64(b.cfg.PeriodSec)
}

func (b *bufferbloat) SeriesInto(buf []workload.Sample, vd cluster.VDID, durSec int) []workload.Sample {
	m := &b.fleet.Models[vd]
	drain := b.drainBps(vd)
	// Keep the model's read/write mix so the fleet generator's size and QP
	// draws stay representative.
	readFrac := 0.5
	if tot := m.MeanBps(); tot > 0 {
		readFrac = m.MeanReadBps / tot
	}
	if cap(buf) < durSec {
		buf = make([]workload.Sample, durSec)
	}
	out := buf[:durSec]
	for t := 0; t < durSec; t++ {
		rate := b.cfg.Idle * drain
		if b.saturated(vd, t) {
			rate = b.cfg.Overdrive * drain
		}
		r, w := rate*readFrac, rate*(1-readFrac)
		out[t] = workload.Sample{
			ReadBps: r, WriteBps: w,
			ReadIOPS: r / m.ReadIOSize, WriteIOPS: w / m.WriteIOSize,
		}
	}
	return out
}

func (b *bufferbloat) GenEvents(vd cluster.VDID, series []workload.Sample, sampleEvery int, boost func(sec int) float64, emit func(workload.Event)) {
	b.fleet.GenEventsBoostedOver(vd, series, sampleEvery, boost, emit)
}

// DelaySeries integrates the device queue over the demand series: backlog
// grows by (offered - drain) bytes each second, clamps at QueueSec worth of
// drain, and every IO in second t pays the standing sojourn time
// backlog/drain. The sawtooth this produces — delay ramping through each ON
// phase, draining through each OFF phase — is the bufferbloat signature.
func (b *bufferbloat) DelaySeries(buf []float64, vd cluster.VDID, series []workload.Sample) ([]float64, trace.Stage) {
	drain := b.drainBps(vd)
	if cap(buf) < len(series) {
		buf = make([]float64, len(series))
	}
	out := buf[:len(series)]
	backlog := 0.0
	maxBacklog := b.cfg.QueueSec * drain
	for t, s := range series {
		backlog += s.Bps() - drain
		if backlog < 0 {
			backlog = 0
		}
		if backlog > maxBacklog {
			backlog = maxBacklog
		}
		out[t] = backlog / drain * 1e6 // seconds of sojourn, in µs
	}
	return out, trace.StageBlockServer
}
