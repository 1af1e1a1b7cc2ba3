// Package ebs wires every substrate into an end-to-end simulator of the EBS
// IO path of Figure 1: VMs issue block IOs to their VDs' queue pairs; the
// hypervisor's worker threads (round-robin bound) pick them up, applying the
// per-VD dual-cap throttle; requests cross the frontend network to the
// BlockServer owning the target segment, then the backend network to the
// ChunkServer; the DiTing tracer samples per-IO records and aggregates
// full-scale per-second metrics — producing exactly the two datasets the
// study consumes.
//
// The engine is sharded: virtual disks are partitioned across a bounded
// worker pool, each shard feeds its own tracer, and shard outputs are merged
// deterministically, so a run's datasets are byte-identical for any Workers
// value at a fixed seed (see DESIGN.md, "Parallel simulation engine").
package ebs

import (
	"fmt"
	"sync"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/hypervisor"
	"ebslab/internal/latency"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// Options configures a simulation run. The zero value of every field is the
// documented default; negative values are rejected by Validate rather than
// silently rewritten. The plain-valued fields are what a RunSpec carries
// across the fabric's wire; destinations, callbacks and fleet-bound values
// (tagged json:"-") stay with the process that set them.
type Options struct {
	// DurationSec is the observation window (0 = the fleet config's window).
	DurationSec int
	// TraceSampleEvery is the DiTing per-IO sampling rate (0 =
	// trace.SampleRate = 3200; pass 1 to trace everything).
	TraceSampleEvery int
	// EventSampleEvery thins the generated IO stream itself for
	// tractability (0 or 1: generate every IO). Metric rows scale the
	// counted bytes back up so rates stay calibrated.
	EventSampleEvery int
	// MaxVDs bounds how many virtual disks are simulated (0 = all).
	MaxVDs int
	// Workers bounds the simulation worker pool (0 = one per CPU). Results
	// are identical for every worker count.
	Workers int
	// DisableThrottle turns off the hypervisor throttle.
	DisableThrottle bool
	// Check enables the runtime validation subsystem, which every program
	// sets for every study it runs: the engine counts every IO the workload
	// layer emits, audits each per-VD throttle replay, and runs
	// invariant.VerifyRun's laws over the merged dataset. Any violation fails
	// the run with an error describing the broken law. Checking adds no pass
	// over the fleet; on the bench's study shape (350,040 fully traced
	// records, 2 workers on a 2-vCPU x86-64 host) VerifyRun takes ~10 ms,
	// serial after the join, and a checked run ~7 % longer than an unchecked
	// one (84 vs 77 ms).
	Check bool
	// Chaos, when non-nil, runs the simulation under a deterministic
	// fault-injection plan: the plan is expanded once against (Seed, fleet
	// shape) into a chaos.Schedule, IOs targeting a crashed BlockServer pay
	// the plan's failover latency penalty, and storming VDs offer boosted
	// demand. The expansion is seed-derived, so results stay byte-identical
	// across worker counts; see DESIGN.md, "Fault model".
	Chaos *chaos.Plan `json:",omitempty"`
	// ChaosStats, when non-nil and Chaos is set, receives the run's merged
	// fault accounting.
	ChaosStats *chaos.Stats `json:"-"`
	// Stream, when non-nil, enables the streaming analytics path (the
	// -stream mode of cmd/ebssim): every shard folds each completed IO into
	// its own sketch.Set — SpaceSaving heavy hitters, log-bucket quantile
	// sketches, HyperLogLog cardinality, per-second rate meters — and the
	// per-shard sets are merged at the join into *Stream. A shard's set has
	// that shard as its only writer; every merge only reads it. Create the
	// destination with sketch.NewSet; the engine fills the set's thinning
	// scale and throughput-cap sum from the run's shape when left zero.
	// Sketch state is deterministic and worker-count invariant, and its
	// memory is independent of the IO count; see DESIGN.md, "Streaming
	// sketch analytics".
	Stream *sketch.Set `json:"-"`
	// Snapshots, when non-nil (requires Stream), is a handle through which
	// another goroutine reads the streaming sketch state while the run
	// executes: a snapshot merges the shards' live sets on demand, and after
	// the run it is *Stream. The sink holds no sketch state of its own and
	// costs the run nothing until someone asks. Like Progress, the sink never
	// crosses the wire — distributed runs snapshot from the coordinator's
	// accepted shard partials instead.
	Snapshots *SnapshotSink `json:"-"`
	// Control, when non-nil, applies a compiled mitigation timeline during
	// the run: per-epoch placement and QP-binding overrides, migration
	// landing penalties, and per-epoch throttle cap deltas, all looked up
	// without consuming any RNG draw — so an empty timeline is byte-identical
	// to no timeline. Timelines are produced by control.BuildPlan from an
	// Observation; RunControlled orchestrates Observe, the plan and the
	// actuated run. Single-process runs only: RunShard and MergeShards reject
	// it (the control loop is inherently sequential over epochs). See
	// DESIGN.md, "Mitigation control plane".
	Control *control.Timeline `json:"-"`
	// Observe, when non-nil, receives the run's per-epoch integer traffic
	// counters (per segment, VD, QP, and worker thread), folded at the join
	// from the merged tracer's full-scale metric rows — so the observation
	// is worker-count and shard-count invariant by construction, and
	// MergeShards fills it like Run does (RunShard leaves it alone). Create
	// the destination with control.NewObservation over a shape matching this
	// fleet and the run's options. A plan is not built from it — Sim.Observe
	// counts the same numbers without simulating; this is the differential
	// witness: check-mode RunControlled sets it on the actuated pass and
	// requires the fold to equal the observation it planned from.
	Observe *control.Observation `json:"-"`
	// Scenario, when non-nil, replaces the fleet's native traffic with a
	// bound scenario from the scenario library: the engine takes the demand
	// series and event stream (or, for a record-sourced replay, the verbatim
	// records) from the scenario instead of the fleet's generators, while
	// placement, worker threads, throttling, and latency stay fleet-derived.
	// The scenario must be Bound to this simulator's fleet; Run and RunShard
	// reject a foreign binding. Scenarios keep the engine's determinism
	// contract — datasets stay byte-identical for every Workers value — and
	// compose with Chaos, Stream, Check, and (except record-sourced replays,
	// whose measured latencies cannot be re-derived) Control/Observe. See
	// DESIGN.md, "Scenario library & trace replay".
	Scenario scenario.Workload `json:"-"`
	// Seed overrides the base seed of the per-VD latency sampling streams
	// (default: fleet seed).
	Seed int64
	// Clocks, when non-nil, receives the run's time by engine stage (see
	// Clocks). With it nil the engine reads no clock; either way the results
	// are the same bytes.
	Clocks *Clocks `json:"-"`
	// Progress, when non-nil, is called after each virtual disk finishes,
	// with the number of completed disks and the total. Calls are
	// serialized but may come from pool goroutines; keep it cheap.
	Progress func(done, total int) `json:"-"`
}

// prepare validates and defaults the options; every entry point passes them
// through it exactly once before use (Run, RunShard and MergeShards via
// begin).
func (o Options) prepare(f *workload.Fleet) (Options, error) {
	if err := o.Validate(); err != nil {
		return o, err
	}
	return o.withDefaults(f), nil
}

// withDefaults fills zero-valued fields from the fleet configuration and
// package defaults. It assumes the options already passed Validate.
func (o Options) withDefaults(f *workload.Fleet) Options {
	if o.DurationSec == 0 {
		o.DurationSec = f.Cfg.DurationSec
	}
	if o.TraceSampleEvery == 0 {
		o.TraceSampleEvery = trace.SampleRate
	}
	if o.EventSampleEvery == 0 {
		o.EventSampleEvery = 1
	}
	if o.Seed == 0 {
		o.Seed = f.Cfg.Seed
	}
	return o
}

// Validate rejects option values that have no meaning. Zero values are
// defaults and always valid.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"DurationSec", o.DurationSec},
		{"TraceSampleEvery", o.TraceSampleEvery},
		{"EventSampleEvery", o.EventSampleEvery},
		{"MaxVDs", o.MaxVDs},
		{"Workers", o.Workers},
	} {
		if f.v < 0 {
			return fmt.Errorf("ebs: Options.%s is %d, want >= 0", f.name, f.v)
		}
	}
	if o.Chaos != nil {
		if err := o.Chaos.Validate(); err != nil {
			return fmt.Errorf("ebs: Options.Chaos: %w", err)
		}
	}
	if o.Snapshots != nil && o.Stream == nil {
		return fmt.Errorf("ebs: Options.Snapshots requires Options.Stream (snapshots are views of the streaming sketch state)")
	}
	return nil
}

// Sim is an end-to-end EBS simulation over one generated fleet. Run-
// invariant derived state — the QP worker-thread table, the compiled
// default latency table, the dataset spec tables — is computed once and
// shared across runs.
type Sim struct {
	fleet    *workload.Fleet
	bindings []*hypervisor.Binding // per compute node
	model    *latency.Model
	table    *latency.Table // model, compiled
	wtOf     []int8         // QP -> hypervisor worker thread, dense by QPID

	specOnce sync.Once
	vdSpecs  []trace.VDSpec
	vmSpecs  []trace.VMSpec
}

// New builds a simulator over the fleet with production (round-robin)
// QP-to-WT bindings.
func New(f *workload.Fleet) *Sim {
	s := &Sim{fleet: f, model: latency.Default()}
	for n := range f.Topology.Nodes {
		s.bindings = append(s.bindings, hypervisor.RoundRobin(f.Topology, cluster.NodeID(n)))
	}
	s.table = s.model.Compile()
	// QP IDs are dense indices (Topology.Validate pins IDs == positions), so
	// the per-IO worker-thread attribution is a slice lookup.
	s.wtOf = make([]int8, len(f.Topology.QPs))
	for _, b := range s.bindings {
		for i, qp := range b.QPs {
			s.wtOf[qp] = b.WTOf[i]
		}
	}
	return s
}

// specs lazily builds the dataset's VD/VM spec tables. The tables are pure
// functions of the topology and are shared, read-only, by every dataset the
// Sim assembles.
func (s *Sim) specs() ([]trace.VDSpec, []trace.VMSpec) {
	s.specOnce.Do(func() {
		top := s.fleet.Topology
		s.vdSpecs = make([]trace.VDSpec, 0, len(top.VDs))
		for i := range top.VDs {
			vd := &top.VDs[i]
			s.vdSpecs = append(s.vdSpecs, trace.VDSpec{
				VD: vd.ID, Capacity: vd.Capacity,
				ThroughputCap: vd.ThroughputCap, IOPSCap: vd.IOPSCap,
				NumQPs: len(vd.QPs),
			})
		}
		s.vmSpecs = make([]trace.VMSpec, 0, len(top.VMs))
		for i := range top.VMs {
			vm := &top.VMs[i]
			s.vmSpecs = append(s.vmSpecs, trace.VMSpec{
				VM: vm.ID, Node: vm.Node, App: vm.App, VDs: vm.VDs,
			})
		}
	})
	return s.vdSpecs, s.vmSpecs
}

// checkScenarioOptions validates the run's scenario binding: the scenario
// must be bound to this simulator's fleet (series, events, and records are
// expressed in that fleet's address space), and an actuated run's scenario
// must be controllable. MergeShards deliberately skips this check: the
// coordinator merges partials against its own fleet instance while the
// scenario was bound worker-side.
func (s *Sim) checkScenarioOptions(opts *Options) error {
	sc := opts.Scenario
	if sc == nil {
		return nil
	}
	if sc.Fleet() != s.fleet {
		return fmt.Errorf("ebs: Options.Scenario %q is bound to a different fleet; Bind it to this simulator's fleet", sc.Name())
	}
	if opts.Control != nil {
		return checkControllable(sc)
	}
	return nil
}

// checkControllable refuses the control plane over a record-sourced replay:
// its latencies are measured, not modelled, so a timeline's placement
// overrides and migration penalties would falsify them — and the predict→act
// premise needs re-simulatable traffic, so even an empty plan would be a lie.
func checkControllable(sc scenario.Workload) error {
	if rs, ok := sc.(scenario.RecordSource); ok && rs.SourcesRecords() {
		return fmt.Errorf("ebs: scenario %q replays verbatim records; the control plane cannot actuate over measured latencies (foreign-schema replays can)", sc.Name())
	}
	return nil
}

// scaleRows compensates metric rows for event thinning so reported rates
// approximate the full-scale traffic, in place.
func scaleRows(rows []trace.MetricRow, factor float64) {
	if factor == 1 {
		return
	}
	for i := range rows {
		rows[i].ReadBps *= factor
		rows[i].WriteBps *= factor
		rows[i].ReadIOPS *= factor
		rows[i].WriteIOPS *= factor
	}
}
