package ebs

import (
	"context"
	"errors"
	"fmt"

	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/par"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// ObsShapeFor builds the control-plane observation shape for a run of this
// fleet: entity axes from the topology, window and thinning scale from the
// (validated, defaulted) options, epoch length from epochSec.
func (s *Sim) ObsShapeFor(opts Options, epochSec int) (control.ObsShape, error) {
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return control.ObsShape{}, err
	}
	top := s.fleet.Topology
	shape := control.ObsShape{
		EpochSec: epochSec,
		DurSec:   opts.DurationSec,
		Segments: len(top.Segments),
		VDs:      len(top.VDs),
		QPs:      len(top.QPs),
		WTs:      top.NumWTs(),
		WTBase:   make([]int, len(top.Nodes)),
		Scale:    float64(opts.EventSampleEvery),
	}
	base := 0
	for n := range top.Nodes {
		shape.WTBase[n] = base
		base += top.Nodes[n].WorkerNum
	}
	if err := shape.Validate(); err != nil {
		return control.ObsShape{}, err
	}
	return shape, nil
}

// ControlInput assembles the fleet-side planning context for control.BuildPlan:
// base placement and QP binding, per-VD caps, the VM and node maps, and — when
// the run has a chaos plan — the epoch-boundary down function derived from the
// expanded schedule (the controller sees a crash only once an epoch boundary
// passes with the BS down, exactly what a production watchdog polling at the
// control cadence would see).
func (s *Sim) ControlInput(opts Options, obs *control.Observation) (control.Input, error) {
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return control.Input{}, err
	}
	top := s.fleet.Topology
	in := control.Input{
		Obs:       obs,
		Placement: s.fleet.Seg2BS,
		Binding:   s.wtOf,
		Caps:      make([]throttle.Caps, len(top.VDs)),
		VMOfVD:    make([]int, len(top.VDs)),
		NodeOfQP:  make([]int, len(top.QPs)),
	}
	for i := range top.VDs {
		in.Caps[i] = throttle.Caps{Tput: top.VDs[i].ThroughputCap, IOPS: top.VDs[i].IOPSCap}
		in.VMOfVD[i] = int(top.VDs[i].VM)
	}
	for q := range top.QPs {
		in.NodeOfQP[q] = int(top.NodeOfQP(cluster.QPID(q)))
	}
	if sched := s.expandChaos(opts); sched != nil {
		epochSec := obs.Shape.EpochSec
		in.Down = func(ep, bs int) bool { return sched.BSDownAt(bs, ep*epochSec) }
	}
	return in, nil
}

// errOwnsControlOptions answers a caller that hands the predict→act loop a
// timeline or an observation destination of its own.
var errOwnsControlOptions = errors.New("ebs: a controlled run builds its own Control/Observe options; leave both nil")

// checkEpoch refuses a control cadence the window cannot hold: the controller
// decides for epoch e+1 at the end of epoch e, so one epoch spanning the whole
// window leaves nothing to decide for and the run would be a silent no-op. The
// default cadence is exempt — on a one-second window it is the only cadence
// there is.
func checkEpoch(epochSec, durSec int) error {
	if epochSec >= durSec && epochSec != control.DefaultEpochSec(durSec) {
		return fmt.Errorf("ebs: control epoch %ds spans the whole %ds window: the controller decides for the next epoch and there is none; want an epoch shorter than the window (0 = an eighth of it)", epochSec, durSec)
	}
	return nil
}

// observer is one Observe worker's state: the series scratch it reuses across
// disks, the disk it is counting, and count bound once as the generator's
// callback (no closure per disk).
type observer struct {
	obs     *control.Observation
	top     *cluster.Topology
	vd      cluster.VDID
	series  []workload.Sample
	countFn func(workload.Event)
}

func (w *observer) count(ev workload.Event) {
	w.obs.Add(ev.TimeUS, ev.Op, ev.Size, w.vd, ev.QP, w.top.SegmentOfOffset(w.vd, ev.Offset))
}

// Observe is the control plane's telemetry pass: it generates the run's
// offered traffic and counts every IO into an Observation of epochSec-second
// epochs (0 = control.DefaultEpochSec of the window), and simulates nothing.
// Every counter the controller reads is a function of the generated event
// stream alone — which disk, queue pair and segment an IO addresses, when, how
// large — so the pass validates the options exactly as a run does, then per
// disk draws the demand series, the storm boost and the events, and skips
// everything downstream of the generator: throttle, latency, tracer, merge,
// dataset. Destinations and callbacks in opts (Stream, Snapshots, ChaosStats,
// Clocks, Progress, Check) belong to the run the caller asked for and are
// ignored.
//
// A queue pair and a segment belong to one disk, so workers write disjoint
// counters with no lock and no merge, and integer adds make the observation
// identical for every Workers value. It is also policy-invariant: observe
// once, then RunObserved per policy.
func (s *Sim) Observe(ctx context.Context, opts Options, epochSec int) (*control.Observation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Control != nil || opts.Observe != nil {
		return nil, errOwnsControlOptions
	}
	if err := checkControllable(opts.Scenario); err != nil {
		return nil, err
	}
	opts.Stream, opts.Snapshots, opts.ChaosStats, opts.Progress, opts.Check = nil, nil, nil, nil, false
	r, err := s.begin(opts)
	if err != nil {
		return nil, err
	}
	if epochSec <= 0 {
		epochSec = control.DefaultEpochSec(r.opts.DurationSec)
	}
	if err := checkEpoch(epochSec, r.opts.DurationSec); err != nil {
		return nil, err
	}
	shape, err := s.ObsShapeFor(r.opts, epochSec)
	if err != nil {
		return nil, err
	}
	if err := s.checkScenarioOptions(&r.opts); err != nil {
		return nil, fmt.Errorf("ebs: observe pass: %w", err)
	}

	obs := control.NewObservation(shape)
	workers := min(par.Workers(r.opts.Workers), r.nVDs)
	pool := make([]observer, workers)
	for i := range pool {
		w := &pool[i]
		w.obs, w.top = obs, s.fleet.Topology
		w.countFn = w.count
	}
	err = par.ForEachWorker(ctx, r.nVDs, workers, func(worker, i int) error {
		w := &pool[worker]
		off := s.offeredBy(w.series, i, &r.opts, r.sched)
		w.series, w.vd = off.series, off.vd
		off.generate(w.countFn)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ebs: observe pass: %w", err)
	}
	return obs, nil
}

// RunControlled executes the predict→act loop end to end: Observe counts the
// seed's offered traffic into an Observation, control.BuildPlan replays its
// epochs through the policy into a timeline, and the actuated pass runs the
// seed with the timeline applied — one generate-only pass, one plan, one run.
// Generation draws the same RNG streams in both, so the only differences
// between the actuated dataset and an uncontrolled run's are the attribution
// and latency effects of the plan itself — a no-op policy returns a dataset
// byte-identical to s.Run(ctx, opts).
//
// In check mode the decision log and the timeline are held to the actuation
// conservation laws before the actuated pass runs, and the actuated pass's
// own DiTing metric rows, folded into a second Observation, must reproduce
// the one the plan was built from (law control/observation): the day
// something feeds actuation back into offered load, the run fails.
func (s *Sim) RunControlled(ctx context.Context, opts Options, pol control.Policy, cfg control.Config) (*trace.Dataset, *control.Plan, error) {
	obs, err := s.Observe(ctx, opts, cfg.EpochSec)
	if err != nil {
		return nil, nil, err
	}
	return s.RunObserved(ctx, opts, pol, obs)
}

// RunObserved is RunControlled from the observation on: plan under pol from
// obs, then the actuated run. obs must come from s.Observe under the same
// opts; it is only read, so one observation serves any number of policies.
func (s *Sim) RunObserved(ctx context.Context, opts Options, pol control.Policy, obs *control.Observation) (*trace.Dataset, *control.Plan, error) {
	if opts.Control != nil || opts.Observe != nil {
		return nil, nil, errOwnsControlOptions
	}
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return nil, nil, err
	}
	if err := s.checkObsShape(obs.Shape, opts.DurationSec); err != nil {
		return nil, nil, err
	}
	in, err := s.ControlInput(opts, obs)
	if err != nil {
		return nil, nil, err
	}
	plan, err := control.BuildPlan(pol, control.Config{EpochSec: obs.Shape.EpochSec}, in)
	if err != nil {
		return nil, nil, err
	}
	actOpts := opts
	actOpts.Control = plan.Timeline
	if opts.Check {
		rep := &invariant.Report{}
		invariant.CheckControlActuation(rep, plan, in.Placement, in.Binding, in.Caps)
		if err := rep.Err(); err != nil {
			return nil, nil, fmt.Errorf("ebs: control plan: %w", err)
		}
		actOpts.Observe = control.NewObservation(obs.Shape)
	}
	ds, err := s.Run(ctx, actOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("ebs: actuated pass: %w", err)
	}
	if opts.Check {
		if got, want := actOpts.Observe.Fingerprint(), obs.Fingerprint(); got != want {
			rep := &invariant.Report{}
			rep.Addf("control/observation", "the actuated pass's metric rows fold to observation %.12s, the plan was built from %.12s: actuation changed the offered traffic", got, want)
			return nil, nil, fmt.Errorf("ebs: check mode: %w", rep.Err())
		}
	}
	return ds, plan, nil
}

// checkObsShape holds an observation's shape to this fleet's entity axes and
// the run's window.
func (s *Sim) checkObsShape(sh control.ObsShape, durSec int) error {
	top := s.fleet.Topology
	if sh.Segments != len(top.Segments) || sh.VDs != len(top.VDs) ||
		sh.QPs != len(top.QPs) || sh.WTs != top.NumWTs() {
		return fmt.Errorf("ebs: observation shape (%d seg, %d vd, %d qp, %d wt) does not match fleet (%d, %d, %d, %d)",
			sh.Segments, sh.VDs, sh.QPs, sh.WTs,
			len(top.Segments), len(top.VDs), len(top.QPs), top.NumWTs())
	}
	if sh.DurSec != durSec {
		return fmt.Errorf("ebs: observation window %ds, run lasts %ds", sh.DurSec, durSec)
	}
	return nil
}

// checkControlOptions validates Control/Observe against the fleet before a
// run, and drops an empty timeline so the uncontrolled hot path (a single
// nil check per IO) is taken whenever there is nothing to actuate.
func (s *Sim) checkControlOptions(opts *Options) error {
	top := s.fleet.Topology
	if opts.Control != nil {
		if err := opts.Control.Validate(len(top.Segments), len(top.QPs), len(top.VDs)); err != nil {
			return err
		}
		if opts.Control.DurSec != opts.DurationSec {
			return fmt.Errorf("ebs: control timeline spans %ds, run lasts %ds", opts.Control.DurSec, opts.DurationSec)
		}
		if opts.Control.Empty() {
			opts.Control = nil
		}
	}
	if opts.Observe != nil {
		return s.checkObsShape(opts.Observe.Shape, opts.DurationSec)
	}
	return nil
}

// lendCapsAt adapts a timeline's per-epoch cap deltas for one VD to the
// throttle's scheduled-caps hook (the engine replays each VD as its own
// one-disk group). Deltas clamp at zero: a lender never owes negative cap.
func lendCapsAt(ctl *control.Timeline, vd int) func(t int, eff []throttle.Caps) {
	return func(t int, eff []throttle.Caps) {
		ep := ctl.EpochOf(t)
		if r := ctl.LendTput(ep); r != nil {
			eff[0].Tput += r[vd]
			if eff[0].Tput < 0 {
				eff[0].Tput = 0
			}
		}
		if r := ctl.LendIOPS(ep); r != nil {
			eff[0].IOPS += r[vd]
			if eff[0].IOPS < 0 {
				eff[0].IOPS = 0
			}
		}
	}
}
