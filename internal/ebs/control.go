package ebs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/par"
	"ebslab/internal/scenario"
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
// disks, the disk it is counting, the arena it keeps the disk's events in,
// and count bound once as the generator's callback (no closure per disk).
type observer struct {
	obs     *control.Observation
	top     *cluster.Topology
	vd      cluster.VDID
	arena   *eventArena
	series  []workload.Sample
	countFn func(workload.Event)
}

func (w *observer) count(ev workload.Event) {
	w.obs.Add(ev.TimeUS, ev.Op, ev.Size, w.vd, ev.QP, w.top.SegmentOfOffset(w.vd, ev.Offset))
	w.arena.push(ev)
}

// Observed is an observe pass's result: the Observation a plan is built from,
// and the offered traffic it counted, kept so that the actuated pass replays
// each disk's events instead of drawing them again. The kept traffic is
// read-only once Observe returns, so any number of RunObserved calls, at once
// included, may replay it. It costs sizeof(workload.Event) per generated IO
// until Release hands it back; the value is unusable afterwards.
type Observed struct {
	Observation *control.Observation

	sim    *Sim
	opts   Options            // validated and defaulted: what the traffic was drawn under
	events [][]workload.Event // each run disk's events, in generation order; nil once released
	arenas []*eventArena      // the worker arenas events point into
	wall   time.Duration      // the pass's wall time, when opts.Clocks asked for it
}

// Release returns the kept traffic's arenas for reuse by later passes. No
// RunObserved over o may be running or start afterwards.
func (o *Observed) Release() {
	for _, a := range o.arenas {
		a.reset()
		arenaPool.Put(a)
	}
	o.arenas, o.events = nil, nil
}

// arenaChunk is an arena chunk's size in events (2 MiB): large enough that a
// pass takes a few chunks per worker, and a disk rarely moves.
const arenaChunk = 1 << 16

// arenaPool recycles observe workers' arenas, chunks included, across passes.
var arenaPool = sync.Pool{New: func() any { return new(eventArena) }}

// eventArena is one observe worker's event store. The worker's disks append
// to the current chunk in turn; a disk that outgrows it moves, with the
// events it has so far, to a chunk at least twice that size, so each disk's
// events stay one slice and no chunk is ever reallocated under a slice
// already kept.
type eventArena struct {
	cur   []workload.Event   // the chunk being filled
	start int                // where the current disk's events begin in cur
	full  [][]workload.Event // earlier chunks, still under kept slices
	spare [][]workload.Event // empty chunks, ready for reuse
}

func (a *eventArena) push(ev workload.Event) {
	if len(a.cur) == cap(a.cur) {
		a.grow()
	}
	a.cur = append(a.cur, ev)
}

// grow moves the current disk's events to a chunk with room for as many
// again, keeping the old chunk if earlier disks' events are in it.
func (a *eventArena) grow() {
	disk := a.cur[a.start:]
	next := a.take(max(arenaChunk, 2*len(disk)))
	next = append(next, disk...)
	switch {
	case a.start > 0:
		a.full = append(a.full, a.cur)
	case a.cur != nil:
		a.spare = append(a.spare, a.cur[:0])
	}
	a.cur, a.start = next, 0
}

// take returns an empty chunk of at least n events, a spare one if any is
// large enough.
func (a *eventArena) take(n int) []workload.Event {
	for i, c := range a.spare {
		if cap(c) >= n {
			last := len(a.spare) - 1
			a.spare[i] = a.spare[last]
			a.spare = a.spare[:last]
			return c
		}
	}
	return make([]workload.Event, 0, n)
}

// seal ends the current disk and returns its events, capped so that nothing
// appended later can reach them.
func (a *eventArena) seal() []workload.Event {
	n := len(a.cur)
	disk := a.cur[a.start:n:n]
	a.start = n
	return disk
}

// reset empties the arena, keeping every chunk as a spare.
func (a *eventArena) reset() {
	for _, c := range a.full {
		a.spare = append(a.spare, c[:0])
	}
	if a.cur != nil {
		a.spare = append(a.spare, a.cur[:0])
	}
	a.cur, a.start, a.full = nil, 0, a.full[:0]
}

// Observe is the control plane's telemetry pass: it generates the run's
// offered traffic, counts every IO into an Observation of epochSec-second
// epochs (0 = control.DefaultEpochSec of the window) and keeps the events
// for the actuated pass, and simulates nothing. Every counter the controller
// reads is a function of the generated event stream alone — which disk,
// queue pair and segment an IO addresses, when, how large — so the pass
// validates the options exactly as a run does, then per disk draws the
// demand series, the storm boost and the events, and skips everything
// downstream of the generator: throttle, latency, tracer, merge, dataset.
// Destinations and callbacks in opts (Stream, Snapshots, ChaosStats, Clocks,
// Progress, Check) belong to the run the caller asked for and are ignored,
// but for Clocks: when it is set the pass times itself, and RunObserved
// publishes that as Clocks.Observe.
//
// A queue pair and a segment belong to one disk, so workers write disjoint
// counters with no lock and no merge, and integer adds make the observation
// identical for every Workers value. It is also policy-invariant: observe
// once, then RunObserved per policy, then Release.
func (s *Sim) Observe(ctx context.Context, opts Options, epochSec int) (*Observed, error) {
	sw := stopwatch(opts.Clocks != nil)
	t0 := sw.now()
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

	workers := min(par.Workers(r.opts.Workers), r.nVDs)
	o := &Observed{
		Observation: control.NewObservation(shape),
		sim:         s,
		opts:        r.opts,
		events:      make([][]workload.Event, r.nVDs),
		arenas:      make([]*eventArena, workers),
	}
	pool := make([]observer, workers)
	for i := range pool {
		w := &pool[i]
		w.obs, w.top = o.Observation, s.fleet.Topology
		w.arena = arenaPool.Get().(*eventArena)
		o.arenas[i] = w.arena
		w.countFn = w.count
	}
	err = par.ForEachWorker(ctx, r.nVDs, workers, func(worker, i int) error {
		w := &pool[worker]
		off := s.offeredBy(w.series, i, &r.opts, r.sched)
		w.series, w.vd = off.series, off.vd
		off.generate(w.countFn)
		o.events[i] = w.arena.seal()
		return nil
	})
	if err != nil {
		o.Release()
		return nil, fmt.Errorf("ebs: observe pass: %w", err)
	}
	sw.lap(&o.wall, t0)
	return o, nil
}

// RunControlled executes the predict→act loop end to end: Observe counts the
// seed's offered traffic into an Observation and keeps it, control.BuildPlan
// replays the observation's epochs through the policy into a timeline, and
// the actuated pass runs the seed with the timeline applied, replaying the
// kept events — one generation, one plan, one run. The actuated pass draws
// the same throttle and latency streams as an uncontrolled run over the same
// events, so the only differences between the actuated dataset and an
// uncontrolled run's are the attribution and latency effects of the plan
// itself — a no-op policy returns a dataset byte-identical to s.Run(ctx,
// opts).
//
// In check mode the decision log and the timeline are held to the actuation
// conservation laws before the actuated pass runs, and the actuated pass's
// own DiTing metric rows, folded into a second Observation, must reproduce
// the one the plan was built from (law control/observation): the day
// something feeds actuation back into offered load, the run fails.
func (s *Sim) RunControlled(ctx context.Context, opts Options, pol control.Policy, cfg control.Config) (*trace.Dataset, *control.Plan, error) {
	o, err := s.Observe(ctx, opts, cfg.EpochSec)
	if err != nil {
		return nil, nil, err
	}
	defer o.Release()
	return s.RunObserved(ctx, opts, pol, o)
}

// RunObserved is RunControlled from the observe pass on: plan under pol from
// o's observation, then the actuated run over o's kept events. o must come
// from s.Observe under options that shape offered traffic the same way as
// opts — window, EventSampleEvery, MaxVDs, Seed, chaos plan and scenario —
// and anything else is refused; sinks, Workers and Check may differ. o is
// only read, so one observe pass serves any number of policies, concurrently
// included. With opts.Clocks set, Clocks.Observe reads o's pass (zero unless
// Observe had Clocks set too) and Clocks.Plan this call's ControlInput and
// BuildPlan.
func (s *Sim) RunObserved(ctx context.Context, opts Options, pol control.Policy, o *Observed) (*trace.Dataset, *control.Plan, error) {
	if opts.Control != nil || opts.Observe != nil {
		return nil, nil, errOwnsControlOptions
	}
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return nil, nil, err
	}
	if err := s.checkObserved(o, &opts); err != nil {
		return nil, nil, err
	}
	obs := o.Observation
	if err := s.checkObsShape(obs.Shape, opts.DurationSec); err != nil {
		return nil, nil, err
	}
	sw := stopwatch(opts.Clocks != nil)
	t := sw.now()
	in, err := s.ControlInput(opts, obs)
	if err != nil {
		return nil, nil, err
	}
	plan, err := control.BuildPlan(pol, control.Config{EpochSec: obs.Shape.EpochSec}, in)
	if err != nil {
		return nil, nil, err
	}
	var planWall time.Duration
	sw.lap(&planWall, t)
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
	ds, err := s.run(ctx, actOpts, o.events)
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
	if opts.Clocks != nil {
		opts.Clocks.Observe, opts.Clocks.Plan = o.wall, planWall
	}
	return ds, plan, nil
}

// checkObserved refuses to replay o under opts (validated, defaulted) unless
// o is a live pass of this simulator over the same offered traffic: replaying
// events drawn under other options would put another run's traffic in the
// dataset.
func (s *Sim) checkObserved(o *Observed, opts *Options) error {
	switch {
	case o.sim != s:
		return errors.New("ebs: observation taken by another simulator")
	case o.events == nil:
		return errors.New("ebs: observation already released")
	}
	was := &o.opts
	for _, f := range []struct {
		name     string
		was, got any
	}{
		{"window", fmt.Sprintf("%ds", was.DurationSec), fmt.Sprintf("%ds", opts.DurationSec)},
		{"Options.EventSampleEvery", was.EventSampleEvery, opts.EventSampleEvery},
		{"Options.MaxVDs", was.MaxVDs, opts.MaxVDs},
		{"Options.Seed", was.Seed, opts.Seed},
		{"Options.Chaos", planOf(was.Chaos), planOf(opts.Chaos)},
		{"Options.Scenario", specOf(was.Scenario), specOf(opts.Scenario)},
	} {
		if f.was != f.got {
			return fmt.Errorf("ebs: observation %s %v, run has %v: its kept traffic is not this run's", f.name, f.was, f.got)
		}
	}
	return nil
}

// planOf renders a fault plan for checkObserved's comparison.
func planOf(p *chaos.Plan) string {
	if p == nil {
		return "none"
	}
	return fmt.Sprintf("%+v", *p)
}

// specOf renders a scenario for checkObserved's comparison: its canonical
// spec, which rebuilds it exactly on the fleet it is bound to.
func specOf(sc scenario.Workload) string {
	if sc == nil {
		return "native"
	}
	return sc.Spec()
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
