package scenario

import (
	"fmt"

	"ebslab/internal/cluster"
	"ebslab/internal/throttle"
	"ebslab/internal/workload"
)

// elasticConfig shapes the elastic scenario: the fleet's native traffic
// runs unchanged, but every VD's throttle caps step between a low and a
// high multiplier mid-run — the resize/burst-credit churn of elastic volume
// offerings. The step schedule is per-VD phase-shifted, so at any second a
// seed-derived slice of the fleet is squeezed while another is boosted;
// queue-delay oscillation (and its latency signature) follows directly.
type elasticConfig struct {
	// StepSec is how long each cap level holds (default 20).
	StepSec int
	// Lo and Hi are the cap multipliers the schedule cycles through, as
	// lo, 1, hi, 1, lo, ... (defaults 0.4 and 1.6).
	Lo, Hi float64
}

func buildElastic(sp Spec) (config, error) {
	c := elasticConfig{StepSec: 20, Lo: 0.4, Hi: 1.6}
	p := newParams(sp)
	p.Int("step", &c.StepSec)
	p.Float("lo", &c.Lo)
	p.Float("hi", &c.Hi)
	if err := p.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate rejects parameter values that have no meaning.
func (c elasticConfig) Validate() error {
	switch {
	case c.StepSec < 1:
		return fmt.Errorf("scenario: elastic step %d, want >= 1", c.StepSec)
	case c.Lo <= 0 || c.Lo > 1:
		return fmt.Errorf("scenario: elastic lo %g, want in (0, 1]", c.Lo)
	case c.Hi < 1 || c.Hi > 16:
		return fmt.Errorf("scenario: elastic hi %g, want in [1, 16]", c.Hi)
	}
	return nil
}

func (c elasticConfig) bind(sp Spec, f *workload.Fleet) (Workload, error) {
	return &elastic{spec: sp, cfg: c, fleet: f}, nil
}

// elastic delegates series and events to the fleet (native traffic) and
// implements CapScheduler for the stepped throttle caps.
type elastic struct {
	spec  Spec
	cfg   elasticConfig
	fleet *workload.Fleet
}

func (e *elastic) Name() string           { return e.spec.Name }
func (e *elastic) Spec() string           { return e.spec.String() }
func (e *elastic) Fleet() *workload.Fleet { return e.fleet }

func (e *elastic) SeriesInto(buf []workload.Sample, vd cluster.VDID, durSec int) []workload.Sample {
	return e.fleet.VDSeriesInto(buf, vd, durSec)
}

func (e *elastic) GenEvents(vd cluster.VDID, series []workload.Sample, sampleEvery int, boost func(sec int) float64, emit func(workload.Event)) {
	e.fleet.GenEventsBoostedOver(vd, series, sampleEvery, boost, emit)
}

// CapsAt returns vd's caps at second t: the base caps scaled by the level
// of the VD's phase-shifted step cycle (lo, 1, hi, 1).
func (e *elastic) CapsAt(vd cluster.VDID, base throttle.Caps, sec int) throttle.Caps {
	cycle := 4 * e.cfg.StepSec
	phase := int(hash01(e.fleet.Cfg.Seed, tagElasticPh, uint64(vd)) * float64(cycle))
	var mult float64
	switch ((sec + phase) % cycle) / e.cfg.StepSec {
	case 0:
		mult = e.cfg.Lo
	case 2:
		mult = e.cfg.Hi
	default:
		mult = 1
	}
	return throttle.Caps{Tput: base.Tput * mult, IOPS: base.IOPS * mult}
}
