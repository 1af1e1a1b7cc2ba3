package ebs

import (
	"context"
	"fmt"

	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
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

// RunControlled executes the predict→act loop end to end: an observe pass
// over the seed fills an Observation, control.BuildPlan replays its epochs
// through the policy into a timeline, and an actuated pass re-runs the same
// seed with the timeline applied. Both passes draw identical RNG streams, so
// the only differences in the actuated dataset are the attribution and
// latency effects of the plan itself — a no-op policy returns a dataset
// byte-identical to s.Run(ctx, opts).
//
// The observe pass runs with streaming, snapshots, checking, and progress
// stripped (they belong to the run the caller asked for, not the telemetry
// pass). In check mode, the decision log and the timeline are additionally
// held to the actuation conservation laws before the actuated pass runs.
func (s *Sim) RunControlled(ctx context.Context, opts Options, pol control.Policy, cfg control.Config) (*trace.Dataset, *control.Plan, error) {
	if opts.Control != nil || opts.Observe != nil {
		return nil, nil, fmt.Errorf("ebs: RunControlled builds its own Control/Observe options; leave both nil")
	}
	if err := checkControllable(opts.Scenario); err != nil {
		return nil, nil, err
	}
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return nil, nil, err
	}
	if cfg.EpochSec <= 0 {
		cfg.EpochSec = control.DefaultEpochSec(opts.DurationSec)
	}
	shape, err := s.ObsShapeFor(opts, cfg.EpochSec)
	if err != nil {
		return nil, nil, err
	}

	obs := control.NewObservation(shape)
	observeOpts := opts
	observeOpts.Stream = nil
	observeOpts.Snapshots = nil
	observeOpts.ChaosStats = nil
	observeOpts.Progress = nil
	observeOpts.Check = false
	observeOpts.Observe = obs
	if _, err := s.Run(ctx, observeOpts); err != nil {
		return nil, nil, fmt.Errorf("ebs: observe pass: %w", err)
	}

	in, err := s.ControlInput(opts, obs)
	if err != nil {
		return nil, nil, err
	}
	plan, err := control.BuildPlan(pol, cfg, in)
	if err != nil {
		return nil, nil, err
	}
	if opts.Check {
		rep := &invariant.Report{}
		invariant.CheckControlActuation(rep, plan, in.Placement, in.Binding, in.Caps)
		if err := rep.Err(); err != nil {
			return nil, nil, fmt.Errorf("ebs: control plan: %w", err)
		}
	}

	actOpts := opts
	actOpts.Control = plan.Timeline
	ds, err := s.Run(ctx, actOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("ebs: actuated pass: %w", err)
	}
	return ds, plan, nil
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
		sh := opts.Observe.Shape
		if sh.Segments != len(top.Segments) || sh.VDs != len(top.VDs) ||
			sh.QPs != len(top.QPs) || sh.WTs != top.NumWTs() {
			return fmt.Errorf("ebs: observation shape (%d seg, %d vd, %d qp, %d wt) does not match fleet (%d, %d, %d, %d)",
				sh.Segments, sh.VDs, sh.QPs, sh.WTs,
				len(top.Segments), len(top.VDs), len(top.QPs), top.NumWTs())
		}
		if sh.DurSec != opts.DurationSec {
			return fmt.Errorf("ebs: observation window %ds, run lasts %ds", sh.DurSec, opts.DurationSec)
		}
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
