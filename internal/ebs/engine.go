package ebs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/diting"
	"ebslab/internal/invariant"
	"ebslab/internal/latency"
	"ebslab/internal/par"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
	"ebslab/internal/xrand"
)

// vdIDBase spaces per-VD trace-ID streams far enough apart that no stream
// can run into the next one: 2^40 IOs per disk is ~34 years of traffic at
// the generator's 2^20 events/s cap.
func vdIDBase(vd cluster.VDID) uint64 { return (uint64(vd) + 1) << 40 }

// shard is the per-worker simulation state: its own pooled tracer (the
// tracer is not safe for concurrent use), its columnar record batch, and
// every scratch buffer the per-VD replay needs, so steady-state simulation
// allocates nothing. In check mode each shard also accumulates its
// throttle-audit findings; under chaos it accumulates its fault counters
// (summed after the pool drains, so the totals are worker-count
// independent).
type shard struct {
	tracer *diting.Tracer
	batch  *trace.Batch

	// sketch is the shard's streaming state (nil unless Options.Stream is
	// set). The shard is its only writer, once per flush under mu; everyone
	// else — a SnapshotSink mid-run, the final merge — only reads it.
	mu     sync.Mutex
	sketch *sketch.Set

	// em is the per-VD fill state behind emitFn; emitFn is bound once per
	// shard so the event generator callback costs no per-VD closure.
	em     vdEmitter
	emitFn func(workload.Event)

	lat    *latency.Scratch // SampleBatch working memory, pooled
	series []workload.Sample
	delay  []float64 // scenario DelayModel scratch
	demand []throttle.Demand
	caps   [1]throttle.Caps
	group  [1][]throttle.Demand
	th     throttle.Scratch

	audit []string
	chaos chaos.Stats

	// sw is on when the run fills Options.Clocks; clk is the shard's share.
	sw  stopwatch
	clk Clocks
}

// flush drains the shard's batch into the tracer and (when streaming) the
// sketch set, in that order — the same tracer-then-sketch sequence the
// record-at-a-time path observed per IO. A batch of a generative disk (gen
// non-nil: its emitter) has no latencies yet; they are drawn here first, for
// the whole batch at once. A replayed disk's batch (gen nil) carries its
// records' own.
func (sh *shard) flush(gen *vdEmitter) {
	if sh.batch.Len() == 0 {
		return
	}
	t := sh.sw.now()
	if gen != nil {
		gen.latencies(sh.batch)
		t = sh.sw.lap(&sh.clk.Latency, t)
	}
	sh.tracer.EmitBatch(sh.batch)
	t = sh.sw.lap(&sh.clk.Emit, t)
	if sh.sketch != nil {
		sh.mu.Lock()
		sh.sketch.ObserveBatch(sh.batch)
		sh.mu.Unlock()
		sh.sw.lap(&sh.clk.Sketch, t)
	}
	sh.batch.Reset()
}

// newShards builds the per-worker shard states for one run.
func (s *Sim) newShards(workers int, opts *Options, streamCfg sketch.Config) []*shard {
	shards := make([]*shard, workers)
	for i := range shards {
		sh := &shard{
			tracer: diting.Acquire(opts.TraceSampleEvery),
			batch:  trace.GetBatch(trace.DefaultBatchCap),
			lat:    latScratch.Get().(*latency.Scratch),
			sw:     opts.Clocks != nil,
		}
		sh.emitFn = sh.em.emit
		if opts.Stream != nil {
			sh.sketch = sketch.NewSet(streamCfg)
		}
		shards[i] = sh
	}
	return shards
}

// runState is one run from validated options to finished dataset. begin
// fills the run-wide, shard-independent part; runRange adds the per-worker
// shards and, once the pool drains, what they produced — or MergeShards
// unpacks the same from shard partials; finish consumes it.
type runState struct {
	opts      Options            // validated and defaulted
	nVDs      int                // the whole run's disk count, whatever range executes here
	streamCfg sketch.Config      // zero unless streaming
	sched     *chaos.Schedule    // nil without a fault plan
	kept      [][]workload.Event // an observe pass's events per disk, replayed in place of generation; nil to generate
	// emission counts every emitted IO at the source, check mode only. Shards
	// own disjoint virtual disks, so per-VD slots have a single writer and the
	// shared Emission needs no locking.
	emission *invariant.Emission

	shards []*shard
	done   atomic.Int64 // virtual disks completed so far

	tracers []*diting.Tracer
	sets    []*sketch.Set // one per tracer when streaming
	chaos   chaos.Stats
	audits  []string
	clocks  Clocks // the shards' stage clocks, summed at the join

	// compute and storage are the merged metric rows, scaled: exportRows'.
	compute, storage []trace.MetricRow
}

// begin is the single validation-and-defaulting gate of every entry point,
// plus everything derived from the options alone: the sketch configuration,
// the fault schedule (a pure function of seed, plan and shape, expanded once
// and read-only while workers run) and the check-mode emission table. All of
// it describes the GLOBAL run, so every shard of a distributed run derives
// the same state and partials stay mergeable.
func (s *Sim) begin(opts Options) (*runState, error) {
	opts, err := opts.prepare(s.fleet)
	if err != nil {
		return nil, err
	}
	if err := s.checkControlOptions(&opts); err != nil {
		return nil, err
	}
	r := &runState{opts: opts, nVDs: s.runVDs(opts), sched: s.expandChaos(opts)}
	if opts.Stream != nil {
		r.streamCfg = s.streamConfigFor(opts, r.nVDs)
	}
	if opts.Check {
		r.emission = invariant.NewEmission(len(s.fleet.Topology.VDs))
	}
	return r, nil
}

// latScratch recycles the shards' latency-sampling scratch across runs.
var latScratch = sync.Pool{New: func() any { return new(latency.Scratch) }}

// release returns the shards' pooled tracers, batches and latency scratch.
// Callers must have copied or detached everything they keep (diting.Merge
// copies).
func (r *runState) release() {
	for _, sh := range r.shards {
		sh.tracer.Release()
		sh.batch.Release()
		latScratch.Put(sh.lat)
	}
}

// sketchSoFar merges the shards' live sketch sets into a fresh one, taking
// each shard's flush lock for the length of its merge.
func (r *runState) sketchSoFar() *sketch.Set {
	merged := sketch.NewSet(r.streamCfg)
	for _, sh := range r.shards {
		sh.mu.Lock()
		merged.Merge(sh.sketch)
		sh.mu.Unlock()
	}
	return merged
}

// Run simulates the fleet's IO for the window across a bounded worker pool
// and returns the collected datasets. It is the canonical entry point, and
// with RunShard and MergeShards it is one path: Run finishes the range
// [0, nVDs) directly, RunShard packs a range for the wire, MergeShards
// unpacks ranges into the same finish. Virtual disks are independent by
// construction — per-VD series, event, and latency streams are all derived
// from (seed, VD) — so disks are dealt to workers dynamically and shard
// outputs are merged deterministically afterwards: the result is
// byte-identical for every Workers value.
//
// Cancellation is checked between virtual disks; on cancellation the
// partial work is discarded and ctx's error is returned. A nil ctx is
// treated as context.Background().
func (s *Sim) Run(ctx context.Context, opts Options) (*trace.Dataset, error) {
	return s.run(ctx, opts, nil)
}

// run is Run, replaying kept (an observe pass's events, see Observed) in
// place of generating the disks' traffic when it is non-nil.
func (s *Sim) run(ctx context.Context, opts Options, kept [][]workload.Event) (*trace.Dataset, error) {
	r, err := s.runRange(ctx, opts, 0, s.runVDs(opts), kept)
	if err != nil {
		return nil, err
	}
	defer r.release()
	return s.finish(r)
}

// runRange simulates virtual disks [lo, hi) of the run opts describes,
// dealing them across opts.Workers, and returns the state finish (or
// RunShard's packing) reads. A non-nil kept holds every disk's events, which
// the disks replay instead of generating them. The caller releases it.
func (s *Sim) runRange(ctx context.Context, opts Options, lo, hi int, kept [][]workload.Event) (*runState, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := s.begin(opts)
	if err != nil {
		return nil, err
	}
	if err := s.checkScenarioOptions(&r.opts); err != nil {
		return nil, err
	}
	if lo < 0 || hi > r.nVDs || lo >= hi {
		return nil, fmt.Errorf("ebs: shard [%d,%d) outside run range [0,%d)", lo, hi, r.nVDs)
	}
	r.kept = kept
	n := hi - lo
	workers := par.Workers(r.opts.Workers)
	if workers > n {
		workers = n
	}
	r.shards = s.newShards(workers, &r.opts, r.streamCfg)
	r.opts.Snapshots.point(r, nil, 0)
	var progressM sync.Mutex
	err = par.ForEachWorker(ctx, n, workers, func(worker, i int) error {
		sh := r.shards[worker]
		t := sh.sw.now()
		if err := s.simulateVD(sh, lo+i, r); err != nil {
			return err
		}
		sh.sw.lap(&sh.clk.Generate, t)
		done := int(r.done.Add(1))
		if r.opts.Progress != nil {
			progressM.Lock()
			r.opts.Progress(done, n)
			progressM.Unlock()
		}
		return nil
	})
	if err != nil {
		r.opts.Snapshots.point(nil, nil, 0)
		r.release()
		return nil, err
	}
	for _, sh := range r.shards {
		r.tracers = append(r.tracers, sh.tracer)
		if sh.sketch != nil {
			r.sets = append(r.sets, sh.sketch)
		}
		r.chaos.Merge(sh.chaos)
		r.audits = append(r.audits, sh.audit...)
		r.clocks.addShard(sh.clk)
	}
	return r, nil
}

// mergeSets folds sets into a fresh set. Shards own disjoint virtual disks,
// so Set.Merge is exactly commutative here and the merged state is
// worker-count invariant.
func mergeSets(cfg sketch.Config, sets []*sketch.Set) *sketch.Set {
	merged := sketch.NewSet(cfg)
	for _, set := range sets {
		merged.Merge(set)
	}
	return merged
}

// mergeTracers merges the run's tracers and returns the merged records,
// detached; the merge's rows task, exportRows, fills r.compute and r.storage
// beside the record merge. The merged tracer goes back to its pool.
func (r *runState) mergeTracers() []trace.Record {
	merged := diting.MergeWith(r.opts.TraceSampleEvery, r.tracers, r.exportRows)
	records := merged.DetachRecords()
	merged.Release()
	return records
}

// exportRows exports the merged tracer's two metric-row domains once, folds
// them into the control-plane observation while they are still unscaled
// (integer-valued sums, so the observation's counters are exact), then scales
// them for event thinning.
func (r *runState) exportRows(merged *diting.Tracer) {
	r.compute, r.storage = merged.ComputeRows(), merged.StorageRows()
	if r.opts.Observe != nil {
		r.opts.Observe.AddRows(r.compute, r.storage)
	}
	scaleRows(r.compute, float64(r.opts.EventSampleEvery))
	scaleRows(r.storage, float64(r.opts.EventSampleEvery))
}

// finish turns a complete run's parts into its results, the same way for the
// in-process engine and the distributed merge so the two cannot drift: merge
// the tracers (records and metric rows at once, see mergeTracers), assemble
// the dataset, publish the merged sketch state (from here on it is what an
// attached SnapshotSink serves), publish chaos accounting, run the check-mode
// verification suite, and publish the run's clocks.
func (s *Sim) finish(r *runState) (*trace.Dataset, error) {
	opts := r.opts
	sw := stopwatch(opts.Clocks != nil)
	t := sw.now()
	records := r.mergeTracers()
	ds := s.assembleDataset(opts, records, r.compute, r.storage)
	if opts.Stream != nil {
		*opts.Stream = *mergeSets(r.streamCfg, r.sets)
		opts.Snapshots.point(nil, opts.Stream, r.nVDs)
	}
	if r.sched != nil && opts.ChaosStats != nil {
		st := chaos.Stats{CrashWindows: len(r.sched.Crashes), StormWindows: len(r.sched.Storms)}
		st.Merge(r.chaos)
		*opts.ChaosStats = st
	}
	t = sw.lap(&r.clocks.Finish, t)
	if opts.Check {
		rep := invariant.VerifyRun(&invariant.Artifacts{
			Dataset:          ds,
			Emission:         r.emission,
			EventSampleEvery: opts.EventSampleEvery,
			TraceSampleEvery: opts.TraceSampleEvery,
			Control:          opts.Control,
		})
		rep.AddAll("throttle/grants", r.audits)
		if r.sched != nil {
			invariant.CheckChaosSchedule(rep, opts.Chaos, opts.Seed, r.sched)
		}
		if opts.Stream != nil {
			shardTotals := make([]sketch.Totals, len(r.sets))
			for i, set := range r.sets {
				shardTotals[i] = set.Totals()
			}
			invariant.CheckSketchConservation(rep, opts.Stream, shardTotals, r.emission)
		}
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("ebs: check mode: %w", err)
		}
	}
	if opts.Clocks != nil {
		sw.lap(&r.clocks.Check, t)
		r.clocks.Bind = opts.Clocks.Bind // Open's, ahead of the run
		*opts.Clocks = r.clocks
	}
	return ds, nil
}

// expandChaos expands the run's fault plan against the fleet shape, or
// returns nil when the run has none.
func (s *Sim) expandChaos(opts Options) *chaos.Schedule {
	if opts.Chaos == nil {
		return nil
	}
	top := s.fleet.Topology
	return opts.Chaos.Expand(opts.Seed, chaos.Shape{
		BSs: top.StorageNodes, VDs: len(top.VDs), DurSec: opts.DurationSec,
	})
}

// vdEmitter is the batch-fill state of the virtual disk a shard is
// currently replaying. One vdEmitter lives in each shard and is overwritten
// per disk; its emit method is the event generator's callback, appending
// one columnar row per IO and flushing the shard's batch as it fills, and
// its latencies method fills the batch's latency column at flush.
type vdEmitter struct {
	sh         *shard
	top        *cluster.Topology
	seg2bs     *cluster.SegmentMap
	wtOf       []int8
	table      *latency.Table
	rng        *xrand.Rand
	emission   *invariant.Emission
	sched      *chaos.Schedule
	boost      func(sec int) float64
	queueDelay []float64
	// extraDelay is a scenario DelayModel's per-second latency term in µs,
	// landing on extraStage (nil when the run's scenario models no delay).
	extraDelay []float64
	extraStage trace.Stage
	ctl        *control.Timeline // nil unless the run applies a control timeline

	vdID cluster.VDID
	dc   cluster.DCID
	node cluster.NodeID
	user cluster.UserID
	vm   cluster.VMID

	genErr error
}

// emit appends one generated IO to the shard's batch: everything but its
// latencies, which the flush draws for the whole batch (latencies).
func (e *vdEmitter) emit(ev workload.Event) {
	if e.genErr != nil {
		return
	}
	if e.emission != nil {
		e.emission.Add(e.vdID, ev.Op, ev.Size)
	}
	seg := e.top.SegmentOfOffset(e.vdID, ev.Offset)
	sn := e.seg2bs.BSOf(seg)
	if sn < 0 {
		e.genErr = fmt.Errorf("ebs: segment %d unplaced", seg)
		return
	}
	sec := int(ev.TimeUS / 1_000_000)
	wt := e.wtOf[ev.QP]
	// Control-plane actuation: the timeline's epoch rows override the
	// segment's BS (migrations already landed) and the QP's worker thread
	// (rebinds), via pure lookups — no RNG draw, so the generated stream is
	// identical to an uncontrolled run's.
	var ctlEpoch int
	if e.ctl != nil {
		ctlEpoch = e.ctl.EpochOf(sec)
		if row := e.ctl.BSRow(ctlEpoch); row != nil {
			sn = row[seg]
		}
		if row := e.ctl.WTRow(ctlEpoch); row != nil {
			wt = row[ev.QP]
		}
	}
	sh := e.sh
	b := sh.batch
	if b.Full() {
		sh.flush(e)
	}
	i := b.Next()
	b.TraceID[i] = sh.tracer.NextTraceID()
	b.TimeUS[i] = ev.TimeUS
	b.Op[i] = ev.Op
	b.Size[i] = ev.Size
	b.Offset[i] = ev.Offset
	b.DC[i] = e.dc
	b.Node[i] = e.node
	b.User[i] = e.user
	b.VM[i] = e.vm
	b.VD[i] = e.vdID
	b.QP[i] = ev.QP
	b.WT[i] = wt
	b.Storage[i] = sn
	b.Segment[i] = seg
	if e.sched != nil && e.boost != nil && e.boost(sec) != 1 {
		sh.chaos.StormIOs++
	}
}

// latencies fills the latency column of the disk's batch: one SampleBatch
// pass over the disk's latency stream — the draws the record-at-a-time path
// made per IO, in the same order — then, row by row, the four additive terms
// in their fixed order, each its own float32 add (so two terms landing on one
// stage round exactly as they always have): control migration penalty, chaos
// crash penalty, throttle queue delay, scenario delay.
func (e *vdEmitter) latencies(b *trace.Batch) {
	n := b.Len()
	e.table.SampleBatch(e.rng, b.Op[:n], b.Size[:n], b.Lat[:n], e.sh.lat)
	if e.ctl == nil && e.sched == nil && e.queueDelay == nil && e.extraDelay == nil {
		return
	}
	for i := 0; i < n; i++ {
		sec := int(b.TimeUS[i] / 1_000_000)
		lat := &b.Lat[i]
		if e.ctl != nil && e.ctl.MovedAt(e.ctl.EpochOf(sec), int(b.Segment[i])) {
			// The segment is landing on its new BS this epoch: data movement
			// competes with foreground traffic on the backend network.
			lat[trace.StageBackendNet] += float32(control.MigrationPenaltyUS)
		}
		if e.sched != nil && e.sched.BSDownAt(int(b.Storage[i]), sec) {
			e.sh.chaos.FaultedIOs++
			if e.sched.PenaltyUS > 0 {
				lat[trace.StageFrontendNet] += float32(e.sched.PenaltyUS)
			}
		}
		if e.queueDelay != nil && sec < len(e.queueDelay) && e.queueDelay[sec] > 0 {
			lat[trace.StageComputeNode] += float32(e.queueDelay[sec] * 1e6)
		}
		if e.extraDelay != nil && sec < len(e.extraDelay) && e.extraDelay[sec] > 0 {
			lat[e.extraStage] += float32(e.extraDelay[sec])
		}
	}
}

// offered is the traffic one virtual disk offers a run: its per-second demand
// series, the chaos storm multiplier over it (nil for a disk no storm hits),
// and — generate — the IO event stream drawn from the two. A scenario replaces
// the fleet's native series and generator. simulateVD and Observe both take it
// from offeredBy, so whatever changes what a disk offers changes the run and
// the observation its plan is built from together.
type offered struct {
	fleet       *workload.Fleet
	sc          scenario.Workload // nil: the fleet's native traffic
	vd          cluster.VDID
	sampleEvery int
	series      []workload.Sample
	boost       func(sec int) float64
}

// offeredBy resolves disk vdIdx's offered traffic for the run opts describes
// (validated, defaulted, not record-sourced), writing the series into buf.
func (s *Sim) offeredBy(buf []workload.Sample, vdIdx int, opts *Options, sched *chaos.Schedule) offered {
	o := offered{fleet: s.fleet, sc: opts.Scenario, vd: cluster.VDID(vdIdx), sampleEvery: opts.EventSampleEvery}
	if sched != nil {
		o.boost = sched.VDStormFn(vdIdx)
	}
	if o.sc != nil {
		o.series = o.sc.SeriesInto(buf, o.vd, opts.DurationSec)
	} else {
		o.series = s.fleet.VDSeriesInto(buf, o.vd, opts.DurationSec)
	}
	return o
}

// generate delivers the disk's events to emit, in timestamp order.
func (o *offered) generate(emit func(workload.Event)) {
	if o.sc != nil {
		o.sc.GenEvents(o.vd, o.series, o.sampleEvery, o.boost, emit)
	} else {
		o.fleet.GenEventsBoostedOver(o.vd, o.series, o.sampleEvery, o.boost, emit)
	}
}

// meanIOs is the expected length of generate's stream: every generator draws
// second t's read and write counts as the floor of boost(t)·IOPS/sampleEvery
// plus a Bernoulli remainder, whose mean is the rate itself.
func (o *offered) meanIOs() float64 {
	var sum float64
	for t, smp := range o.series {
		b := 1.0
		if o.boost != nil {
			b = o.boost(t)
		}
		sum += b * (smp.ReadIOPS + smp.WriteIOPS)
	}
	return sum / float64(o.sampleEvery)
}

// simulateVD replays one virtual disk's window into the shard's batch
// pipeline: throttle replay for queue delay, event generation over the
// shared traffic series (or the run's kept events for the disk), per-stage
// latency sampling from the disk-derived RNG stream. Under a chaos schedule,
// storm windows boost the disk's offered demand (throttle and generator
// alike) and crash windows tax IOs bound for the dead BlockServer.
func (s *Sim) simulateVD(sh *shard, vdIdx int, r *runState) error {
	opts, emission, sched := &r.opts, r.emission, r.sched
	top := s.fleet.Topology
	vdID := cluster.VDID(vdIdx)
	vd := &top.VDs[vdIdx]
	vm := &top.VMs[vd.VM]
	node := &top.Nodes[vm.Node]

	// A record-sourced replay scenario short-circuits the generative path:
	// the records are the traffic, verbatim.
	sc := opts.Scenario
	if rs, ok := sc.(scenario.RecordSource); ok && rs.SourcesRecords() {
		return s.replayVD(sh, vdID, opts, emission, sched, rs)
	}

	// One traffic series feeds both the throttle replay and the event
	// generator (their RNG streams are independent, so sharing the series
	// changes no draw).
	off := s.offeredBy(sh.series, vdIdx, opts, sched)
	sh.series = off.series
	boost := off.boost

	t := sh.sw.now()
	queueDelay, extraDelay, extraStage := s.delaysOf(sh, vdIdx, opts, boost)
	sh.sw.lap(&sh.clk.Throttle, t)

	rng := xrand.Get(latencySeed(opts.Seed, vdID))
	defer rng.Release()
	sh.tracer.StartStream(vdIDBase(vdID))

	sh.em = vdEmitter{
		sh:         sh,
		top:        top,
		seg2bs:     s.fleet.Seg2BS,
		wtOf:       s.wtOf,
		table:      s.table,
		rng:        rng,
		emission:   emission,
		sched:      sched,
		boost:      boost,
		queueDelay: queueDelay,
		extraDelay: extraDelay,
		extraStage: extraStage,
		ctl:        opts.Control,
		vdID:       vdID,
		dc:         node.DC,
		node:       node.ID,
		user:       vm.User,
		vm:         vm.ID,
	}
	if r.kept != nil {
		for _, ev := range r.kept[vdIdx] {
			sh.em.emit(ev)
		}
	} else {
		off.generate(sh.emitFn)
	}
	sh.flush(&sh.em)
	return sh.em.genErr
}

// delaysOf derives disk vdIdx's per-second latency terms from its offered
// series, already in sh.series (boost is its storm multiplier, nil for
// none): the throttle replay's queue delay in seconds (nil with throttling
// off) and a scenario DelayModel's term in µs with the stage it lands on
// (nil when the scenario models none). Throttle-audit findings go to the
// shard.
func (s *Sim) delaysOf(sh *shard, vdIdx int, opts *Options, boost func(sec int) float64) (queueDelay, extraDelay []float64, extraStage trace.Stage) {
	vdID := cluster.VDID(vdIdx)
	vd := &s.fleet.Topology.VDs[vdIdx]
	sc := opts.Scenario
	// Per-VD throttle replay over the second-granularity series gives
	// each second's queue delay.
	if !opts.DisableThrottle {
		sh.demand = sh.demand[:0]
		for t, smp := range sh.series {
			b := 1.0
			if boost != nil {
				b = boost(t)
			}
			sh.demand = append(sh.demand, throttle.Demand{
				ReadBps: b * smp.ReadBps, WriteBps: b * smp.WriteBps,
				ReadIOPS: b * smp.ReadIOPS, WriteIOPS: b * smp.WriteIOPS,
			})
		}
		sh.caps[0] = throttle.Caps{Tput: vd.ThroughputCap, IOPS: vd.IOPSCap}
		sh.group[0] = sh.demand
		// A VD carrying control-plane lending deltas replays against the
		// scheduled per-epoch caps; every other VD takes the plain path, so
		// the arithmetic (and the dataset) is untouched for them. Scheduled
		// caps compose from up to two sources, in order: a scenario
		// CapScheduler rewrites the second's base caps, then the control
		// plane's lending deltas apply on top. Replay resets eff to the
		// nominal caps before every call, so the scheduler reads the base
		// caps from eff[0].
		var capsAt func(t int, eff []throttle.Caps)
		capSch, _ := sc.(scenario.CapScheduler)
		var lend func(t int, eff []throttle.Caps)
		if opts.Control != nil && opts.Control.VDLends(vdIdx) {
			lend = lendCapsAt(opts.Control, vdIdx)
		}
		if capSch != nil || lend != nil {
			capsAt = func(t int, eff []throttle.Caps) {
				if capSch != nil {
					eff[0] = capSch.CapsAt(vdID, eff[0], t)
				}
				if lend != nil {
					lend(t, eff)
				}
			}
		}
		res, msgs := sh.th.Replay(sh.caps[:], sh.group[:], throttle.Replay{CapsAt: capsAt, Audit: opts.Check})
		for _, m := range msgs {
			sh.audit = append(sh.audit, fmt.Sprintf("VD %d: %s", vdID, m))
		}
		queueDelay = res.QueueDelaySec[0]
	}

	// A scenario delay model turns the demand series into a per-second
	// latency term on its chosen stage (e.g. bufferbloat's device queue).
	if dm, ok := sc.(scenario.DelayModel); ok {
		sh.delay, extraStage = dm.DelaySeries(sh.delay, vdID, sh.series)
		extraDelay = sh.delay
	}
	return queueDelay, extraDelay, extraStage
}

// replayVD streams one virtual disk's verbatim records (a record-sourced
// replay scenario) through the shard's batch pipeline. Placement, worker
// thread, and latencies come from the records themselves; the engine only
// renumbers trace IDs on the disk-derived stream (so sampling stays
// worker-count invariant), counts emission for check mode, and applies chaos
// crash penalties — storms cannot boost verbatim history, and the throttle's
// queue delay is already baked into the measured latencies.
func (s *Sim) replayVD(sh *shard, vdID cluster.VDID, opts *Options, emission *invariant.Emission, sched *chaos.Schedule, rs scenario.RecordSource) error {
	sh.tracer.StartStream(vdIDBase(vdID))
	limitUS := int64(opts.DurationSec) * 1_000_000
	for _, r := range rs.Records(vdID) {
		if r.TimeUS >= limitUS {
			continue
		}
		if emission != nil {
			emission.Add(vdID, r.Op, r.Size)
		}
		b := sh.batch
		if b.Full() {
			sh.flush(nil)
			b = sh.batch
		}
		i := b.Append(&r)
		b.TraceID[i] = sh.tracer.NextTraceID()
		if sched != nil && sched.BSDownAt(int(r.Storage), int(r.TimeUS/1_000_000)) {
			sh.chaos.FaultedIOs++
			if sched.PenaltyUS > 0 {
				b.Lat[i][trace.StageFrontendNet] += float32(sched.PenaltyUS)
			}
		}
	}
	sh.flush(nil)
	return nil
}
