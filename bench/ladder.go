package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ebslab/internal/cluster"
	"ebslab/internal/consensus"
	"ebslab/internal/control"
	"ebslab/internal/diting"
	"ebslab/internal/ebs"
	"ebslab/internal/fabric"
	"ebslab/internal/invariant"
	"ebslab/internal/latency"
	"ebslab/internal/netblock"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
	"ebslab/internal/xrand"
)

// The ladder: every module's exported entry point called in isolation on
// the inputs the workload's study produces, one span per call. It is how
// the benchmark says which layer moved when an end-to-end number moves,
// without a single timer inside the program.

// bindScenarios are the generative library scenarios scenario.bind_ms binds.
var bindScenarios = []string{"bufferbloat", "batchburst", "elastic"}

const (
	codecRecords   = 50_000 // trace codecs run on this prefix of the study's records
	ladderPayload  = 64
	ladder64K      = 64 << 10
	rttCalls       = 2000
	rtt64KCalls    = 200
	commitCalls    = 2000
	codecRoundTrip = 20_000
)

// ladderReps is how often the costlier rungs repeat (their median is
// reported); the test scale runs each once.
func ladderReps(cfg runConfig) int {
	if cfg.Short {
		return 1
	}
	return 3
}

func scaled(cfg runConfig, n int) int {
	if cfg.Short {
		return n / 10
	}
	return n
}

func ladder(cfg runConfig, rec *recorder, p *prepared, rep *report) error {
	opts, err := p.ladderOpts()
	if err != nil {
		return err
	}
	l := &rungs{cfg: cfg, rec: rec, p: p, rep: rep, opts: opts, k: ladderReps(cfg)}
	l.root = rec.start("ladder", 0, 0)
	defer rec.end(l.root)
	for _, rung := range []func() error{
		l.inputs, l.generate, l.engineRun, l.perDisk, l.perRecord, l.codecs,
		l.scenarioRungs, l.controlRungs, l.shardRungs, l.netblockRungs,
		l.consensusRungs, l.fabricRungs, l.invariantRungs, l.unattributed,
	} {
		if err := rung(); err != nil {
			return err
		}
	}
	return nil
}

type rungs struct {
	cfg  runConfig
	rec  *recorder
	p    *prepared
	rep  *report
	opts ebs.Options // the workload's engine options, scenario bound
	k    int
	root int

	full   *trace.Dataset // the study with every IO a record
	nVDs   int
	busyMS float64 // Σ ladder busy time of the layers ebs.Run calls
	runCPU float64 // ebs.run_cpu_ms
	runMS  float64 // ebs.run_ms
	shards []float64
	merge  float64
}

// timed runs fn in a span under the ladder's root and returns its ms.
func (l *rungs) timed(name string, fn func()) float64 { return l.rec.time(name, l.root, 0, fn) }

// medianOf repeats fn n times, one span each, and returns the median ms.
func (l *rungs) medianOf(n int, name string, fn func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = l.timed(name, fn)
	}
	return median(xs)
}

// spanMedian is the median duration of every span called name: the traced
// pass's spans and the ladder's own pool into one sample.
func (l *rungs) spanMedian(name string) float64 { return median(l.rec.durationsMS(name)) }

// runOpts are the options of one ebs.Run as the workload makes it.
func (l *rungs) runOpts() ebs.Options {
	o := l.opts
	if l.p.streams {
		o.Stream = sketch.NewSet(sketch.Config{})
	}
	return o
}

// inputs runs the study once with every IO retained: the records the
// per-record rungs replay.
func (l *rungs) inputs() error {
	ctx, cancel := studyCtx()
	defer cancel()
	o := l.opts
	o.TraceSampleEvery = 1
	var err error
	l.timed("ladder.inputs", func() { l.full, err = l.p.sim.Run(ctx, o) })
	if err != nil {
		return fmt.Errorf("ladder inputs: %w", err)
	}
	l.nVDs = len(l.p.fleet.Topology.VDs)
	if o.MaxVDs > 0 && o.MaxVDs < l.nVDs {
		l.nVDs = o.MaxVDs
	}
	return nil
}

func (l *rungs) generate() error {
	var err error
	l.rep.set("workload.generate_ms", l.medianOf(5, "workload.Generate", func() {
		_, err = workload.Generate(l.p.cfg)
	}))
	if err != nil {
		return err
	}
	l.rep.set("ebs.new_ms", l.medianOf(5, "ebs.New", func() { ebs.New(l.p.fleet) }))
	return nil
}

// engineRun is ebs.Sim.Run on the workload's options, with its CPU.
func (l *rungs) engineRun() error {
	ctx, cancel := studyCtx()
	defer cancel()
	var cpus []float64
	var ds *trace.Dataset
	for i := 0; i < l.k; i++ {
		runtime.GC()
		o := l.runOpts()
		var err error
		c0 := cpuNS()
		l.timed("ebs.Run", func() { ds, err = l.p.sim.Run(ctx, o) })
		cpus = append(cpus, float64(cpuNS()-c0)/1e6)
		if err != nil {
			return err
		}
	}
	l.runMS, l.runCPU = l.spanMedian("ebs.Run"), median(cpus)
	l.rep.set("ebs.run_ms", l.runMS)
	l.rep.set("ebs.run_cpu_ms", l.runCPU)
	l.rep.set("ebs.ios", float64(len(l.full.Trace)))
	l.rep.set("ebs.records", float64(len(ds.Trace)))
	return nil
}

// perDisk calls the per-disk layers the way simulateVD does: demand
// series, throttle replay, event generation.
func (l *rungs) perDisk() error {
	top := l.p.fleet.Topology
	sc := l.opts.Scenario
	dur := l.opts.DurationSec
	var (
		series                       []workload.Sample
		demand                       []throttle.Demand
		th                           throttle.Scratch
		seriesMS, throttleMS, evMS   float64
		events, throttledSec, vdSecs int
	)
	count := func(workload.Event) { events++ }
	for i := 0; i < l.nVDs; i++ {
		vd := cluster.VDID(i)
		seriesMS += l.timed("workload.VDSeriesInto", func() {
			if sc != nil {
				series = sc.SeriesInto(series, vd, dur)
			} else {
				series = l.p.fleet.VDSeriesInto(series, vd, dur)
			}
		})
		vdSecs += len(series)
		demand = demand[:0]
		for _, s := range series {
			demand = append(demand, throttle.Demand{ReadBps: s.ReadBps, WriteBps: s.WriteBps, ReadIOPS: s.ReadIOPS, WriteIOPS: s.WriteIOPS})
		}
		caps := [1]throttle.Caps{{Tput: top.VDs[i].ThroughputCap, IOPS: top.VDs[i].IOPSCap}}
		group := [1][]throttle.Demand{demand}
		var res throttle.Result
		throttleMS += l.timed("throttle.Simulate", func() { res = th.Simulate(caps[:], group[:]) })
		for _, d := range res.QueueDelaySec[0] {
			if d > 0 {
				throttledSec++
			}
		}
		evMS += l.timed("workload.GenEvents", func() {
			if sc != nil {
				sc.GenEvents(vd, series, l.opts.EventSampleEvery, nil, count)
			} else {
				l.p.fleet.GenEventsBoostedOver(vd, series, l.opts.EventSampleEvery, nil, count)
			}
		})
	}
	l.rep.set("workload.series_ms", seriesMS)
	l.rep.set("workload.series_vdsec", float64(vdSecs))
	l.rep.set("workload.events_ms", evMS)
	l.rep.set("workload.events", float64(events))
	l.rep.set("throttle.replay_ms", throttleMS)
	l.rep.set("throttle.vdsec", float64(vdSecs))
	l.rep.set("throttle.throttled_sec", float64(throttledSec))
	l.busyMS += seriesMS + evMS + throttleMS
	return nil
}

// perRecord replays the study's records, disk by disk as the engine emits
// them, through latency sampling, diting and sketch ingest, then merges the
// per-worker states as the run's join does.
func (l *rungs) perRecord() error {
	recs := l.full.Trace
	byVD := make([][]int32, len(l.p.fleet.Topology.VDs))
	for i := range recs {
		byVD[recs[i].VD] = append(byVD[recs[i].VD], int32(i))
	}

	table := latency.Default().Compile()
	var latMS float64
	var lat [trace.NumStages]float32
	for vd, idx := range byVD {
		rng := xrand.Get(int64(vd) + 1)
		latMS += l.timed("latency.SampleInto", func() {
			for _, i := range idx {
				table.SampleInto(rng.Rand, recs[i].Op, recs[i].Size, &lat)
			}
		})
		rng.Release()
	}
	l.rep.set("latency.sample_ms", latMS)
	l.rep.set("latency.samples", float64(len(recs)))

	every := l.opts.TraceSampleEvery
	if every == 0 {
		every = trace.SampleRate
	}
	scfg := sketch.Config{Scale: float64(l.opts.EventSampleEvery), DurationSec: l.opts.DurationSec}
	for i := 0; i < l.nVDs; i++ {
		scfg.TputCapSum += l.p.fleet.Topology.VDs[i].ThroughputCap
	}
	workers := engineWorkers()
	tracers := make([]*diting.Tracer, workers)
	sets := make([]*sketch.Set, workers)
	for w := range tracers {
		tracers[w] = diting.Acquire(every)
		sets[w] = sketch.NewSet(scfg)
	}
	batch := trace.GetBatch(trace.DefaultBatchCap)
	var emitMS, ingestMS float64
	for vd, idx := range byVD {
		tr, set := tracers[vd%workers], sets[vd%workers]
		tr.StartStream((uint64(vd) + 1) << 40)
		flush := func() {
			emitMS += l.timed("diting.EmitBatch", func() { tr.EmitBatch(batch) })
			ingestMS += l.timed("sketch.ObserveBatch", func() { set.ObserveBatch(batch) })
			batch.Reset()
		}
		for _, i := range idx {
			if batch.Full() {
				flush()
			}
			batch.TraceID[batch.Append(&recs[i])] = tr.NextTraceID()
		}
		if batch.Len() > 0 {
			flush()
		}
	}
	batch.Release()
	kept := 0
	for _, tr := range tracers {
		kept += len(tr.Records())
	}
	var merged *diting.Tracer
	mergeMS := l.timed("diting.Merge", func() { merged = diting.Merge(every, tracers...) })
	l.rep.set("diting.emit_ms", emitMS)
	l.rep.set("diting.records_in", float64(len(recs)))
	l.rep.set("diting.records_kept", float64(kept))
	l.rep.set("diting.merge_ms", mergeMS)
	l.rep.set("diting.merge_records", float64(len(merged.Records())))
	for _, tr := range tracers {
		tr.Release()
	}
	merged.Release()
	l.busyMS += latMS + emitMS + mergeMS

	var all *sketch.Set
	skMergeMS := l.timed("sketch.Merge", func() {
		all = sketch.NewSet(scfg)
		for _, set := range sets {
			all.Merge(set)
		}
	})
	var enc []byte
	l.rep.set("sketch.ingest_ms", ingestMS)
	l.rep.set("sketch.records", float64(all.Totals().IOs))
	l.rep.set("sketch.merge_ms", skMergeMS)
	l.rep.set("sketch.encode_ms", l.timed("sketch.EncodeBinary", func() { enc = all.EncodeBinary() }))
	var err error
	l.rep.set("sketch.decode_ms", l.timed("sketch.DecodeSet", func() { _, err = sketch.DecodeSet(enc) }))
	l.rep.set("sketch.encoded_bytes", float64(len(enc)))
	if err != nil {
		return err
	}
	if l.p.streams {
		l.busyMS += ingestMS + skMergeMS
	}
	return nil
}

// codecs round-trips a prefix of the study's records through the native
// trace codecs. No timed workload reads native traces; the rung exists so a
// codec change has a before and an after.
func (l *rungs) codecs() error {
	recs := l.full.Trace
	if len(recs) > codecRecords {
		recs = recs[:codecRecords]
	}
	var csv, jsonl bytes.Buffer
	var err error
	l.rep.set("trace.csv_write_ms", l.timed("trace.WriteTraceCSV", func() { err = trace.WriteTraceCSV(&csv, recs) }))
	if err != nil {
		return err
	}
	l.rep.set("trace.codec_bytes", float64(csv.Len()))
	l.rep.set("trace.csv_read_ms", l.timed("trace.ReadTraceCSV", func() { _, err = trace.ReadTraceCSV(&csv) }))
	if err != nil {
		return err
	}
	if err := trace.WriteTraceJSONL(&jsonl, recs); err != nil {
		return err
	}
	l.rep.set("trace.jsonl_read_ms", l.timed("trace.ReadTraceJSONL", func() { _, err = trace.ReadTraceJSONL(&jsonl) }))
	return err
}

// scenarioRungs ingests the seed's synthetic foreign trace and binds the
// generative library scenarios to the study's fleet.
func (l *rungs) scenarioRungs() error {
	csv := synthTianchi(l.cfg.Seed, scaled(l.cfg, replayRows))
	var (
		rp     *scenario.Replay
		err    error
		allocs []float64
	)
	for i := 0; i < l.k; i++ {
		runtime.GC()
		m0 := readMem()
		l.timed("scenario.Ingest", func() { rp, err = replayConfig.Ingest(bytes.NewReader(csv), l.p.fleet) })
		allocs = append(allocs, float64(readMem().since(m0).mallocs))
		if err != nil {
			return err
		}
	}
	l.rep.set("scenario.ingest_ms", l.spanMedian("scenario.Ingest"))
	l.rep.set("scenario.ingest_records", float64(rp.Stats().Records))
	l.rep.set("scenario.ingest_kept", float64(rp.Stats().Kept))
	l.rep.set("scenario.ingest_allocs", median(allocs))
	l.rep.set("scenario.bind_ms", l.medianOf(l.k, "scenario.Bind", func() {
		for _, name := range bindScenarios {
			var built *scenario.Built
			if built, err = scenario.Build(name); err == nil {
				_, err = built.Bind(l.p.fleet)
			}
			if err != nil {
				return
			}
		}
	}))
	return err
}

// controlRungs drives the predict->act loop pass by pass and prices the
// whole of RunControlled against a plain run of the same options.
func (l *rungs) controlRungs() error {
	pol, err := control.ByName(controlPolicy)
	if err != nil {
		return err
	}
	ccfg := control.Config{EpochSec: controlEpoch}
	var plan *control.Plan
	for i := 0; i < l.k; i++ {
		runtime.GC()
		if _, plan, err = controlPasses(l.rec, l.root, 0, l.p.sim, l.opts, pol, ccfg); err != nil {
			return err
		}
	}
	ctx, cancel := studyCtx()
	defer cancel()
	var whole *control.Plan
	controlled := l.medianOf(l.k, "ebs.RunControlled", func() {
		runtime.GC()
		_, whole, err = l.p.sim.RunControlled(ctx, l.opts, pol, ccfg)
	})
	if err != nil {
		return err
	}
	if whole.LogFingerprint() != plan.LogFingerprint() {
		return fmt.Errorf("driven control passes decided %s, RunControlled %s", plan.LogFingerprint(), whole.LogFingerprint())
	}
	plain := l.medianOf(l.k, "ebs.Run.plain", func() {
		runtime.GC()
		_, err = l.p.sim.Run(ctx, l.opts)
	})
	if err != nil {
		return err
	}
	l.rep.set("control.observe_ms", l.spanMedian("control.observe"))
	l.rep.set("control.plan_ms", l.spanMedian("control.plan"))
	l.rep.set("control.act_ms", l.spanMedian("control.act"))
	l.rep.set("control.decisions", float64(len(plan.Decisions)))
	l.rep.set("control.overhead_ratio", controlled/plain)
	return nil
}

// shardRungs runs the study as 8 shards directly and merges them: the work
// the fabric's workers and coordinator do, without the fabric.
func (l *rungs) shardRungs() error {
	ctx, cancel := studyCtx()
	defer cancel()
	o := l.opts
	o.Workers = 1
	plan := cluster.PlanShards(l.nVDs, fabricShards)
	parts := make([]*ebs.ShardPartial, len(plan))
	for i, r := range plan {
		var err error
		l.shards = append(l.shards, l.timed("ebs.RunShard", func() { parts[i], err = l.p.sim.RunShard(ctx, o, r.Lo, r.Hi) }))
		if err != nil {
			return err
		}
	}
	var err error
	l.merge = l.timed("ebs.MergeShards", func() { _, err = l.p.sim.MergeShards(o, parts) })
	l.rep.set("ebs.shard_ms", sum(l.shards))
	l.rep.set("ebs.merge_shards_ms", l.merge)
	return err
}

type echoHandler struct{}

func (echoHandler) Handle(req *netblock.Request) *netblock.Response {
	return &netblock.Response{ID: req.ID, Status: netblock.StatusOK, Payload: req.Payload}
}

// netblockRungs measures the RPC substrate alone: Client.Call against a
// handler that only echoes, over the in-process loopback listener the dist
// and gateway workloads use.
func (l *rungs) netblockRungs() error {
	lb := fabric.NewLoopback()
	srv := netblock.NewHandlerServer(echoHandler{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(lb) //nolint:errcheck — ends with net.ErrClosed below
	}()
	defer func() {
		srv.Close()
		lb.Close()
		<-served
	}()
	conn, err := lb.Dial()
	if err != nil {
		return err
	}
	cl := netblock.NewClient(conn)
	defer cl.Close()
	rtt := func(name string, n, size int) (float64, error) {
		payload := make([]byte, size)
		us := make([]float64, n)
		for i := range us {
			var err error
			us[i] = 1000 * l.timed(name, func() { _, err = cl.Call(netblock.OpHeartbeat, payload) })
			if err != nil {
				return 0, err
			}
		}
		return median(us), nil
	}
	small, err := rtt("netblock.Call", scaled(l.cfg, rttCalls), ladderPayload)
	if err != nil {
		return err
	}
	big, err := rtt("netblock.Call.64k", scaled(l.cfg, rtt64KCalls), ladder64K)
	if err != nil {
		return err
	}
	l.rep.set("netblock.rtt_us", small)
	l.rep.set("netblock.rtt_64k_us", big)
	l.rep.set("netblock.calls", float64(srv.Requests()))
	l.rep.set("netblock.retries", float64(cl.Retries()))
	return nil
}

type nopFSM struct{}

func (nopFSM) Apply(uint64, []byte) any { return nil }

// syncFan joins in-process consensus runners: Send delivers straight into
// the destination, so a proposal commits without a tick or a socket.
type syncFan struct{ runners []*consensus.Runner }

func (f *syncFan) Send(m consensus.Message) { f.runners[m.To].Deliver(m) }

func newRunners(peers int) []*consensus.Runner {
	fan := &syncFan{runners: make([]*consensus.Runner, peers)}
	for id := range fan.runners {
		fan.runners[id] = consensus.NewRunner(consensus.RunnerConfig{
			Node:      consensus.NewNode(consensus.Config{ID: id, Peers: peers, BootstrapLeader: 0}),
			FSM:       nopFSM{},
			Transport: fan,
		})
	}
	return fan.runners
}

func (l *rungs) consensusRungs() error {
	cmd := make([]byte, ladderPayload)
	n := scaled(l.cfg, commitCalls)
	commit := func(name string, peers int) (float64, error) {
		runners := newRunners(peers)
		defer func() {
			for _, r := range runners {
				r.Stop()
			}
		}()
		us := make([]float64, n)
		for i := range us {
			var err error
			us[i] = 1000 * l.timed(name, func() { _, err = runners[0].Propose(cmd, time.Second) })
			if err != nil {
				return 0, err
			}
		}
		return median(us), nil
	}
	one, err := commit("consensus.Propose.1", 1)
	if err != nil {
		return err
	}
	three, err := commit("consensus.Propose.3", 3)
	if err != nil {
		return err
	}
	msg := &consensus.Message{Type: consensus.MsgApp, From: 0, To: 1, Term: 1, PrevIndex: 1, PrevTerm: 1, Commit: 1,
		Entries: []consensus.Entry{{Term: 1, Index: 2, Cmd: cmd}}}
	trips := scaled(l.cfg, codecRoundTrip)
	codecMS := l.timed("consensus.codec", func() {
		for i := 0; i < trips; i++ {
			if _, err = consensus.DecodeMessage(consensus.EncodeMessage(msg)); err != nil {
				return
			}
		}
	})
	l.rep.set("consensus.commit1_us", one)
	l.rep.set("consensus.commit3_us", three)
	l.rep.set("consensus.proposals", float64(2*n))
	l.rep.set("consensus.codec_ns", codecMS*1e6/float64(trips))
	return err
}

// fabricRungs runs the study on the fabric (a replay cannot be shipped to
// workers, so the fleet's native traffic stands in for it there).
func (l *rungs) fabricRungs() error {
	o := l.opts
	o.Scenario = nil
	var info fabricInfo
	for i := 0; i < l.k; i++ {
		runtime.GC()
		var err error
		if _, info, err = fabricStudy(l.rec, l.root, 0, l.p.cfg, o); err != nil {
			return err
		}
	}
	study := l.spanMedian("fabric.study")
	var dispatched, accepted, returned int
	for i := range info.ledger.Dispatched {
		dispatched += info.ledger.Dispatched[i]
		accepted += info.ledger.Accepted[i]
		returned += info.ledger.Returned[i]
	}
	l.rep.set("fabric.study_ms", study)
	l.rep.set("fabric.standup_ms", l.spanMedian("fabric.standup"))
	l.rep.set("fabric.overhead_ms", study-makespan(l.shards, fabricWorkers)-l.merge)
	l.rep.set("fabric.shards", float64(len(info.plan)))
	l.rep.set("fabric.requests", float64(info.requests))
	l.rep.set("fabric.dispatched", float64(dispatched))
	l.rep.set("fabric.accepted", float64(accepted))
	l.rep.set("fabric.duplicates", float64(returned-accepted))
	return nil
}

// makespan is how long workers pulling the shards in plan order, each
// taking the next when free, need for them: the longer worker's RunShard
// sum.
func makespan(shardMS []float64, workers int) float64 {
	free := make([]float64, workers)
	for _, d := range shardMS {
		w := 0
		for i := range free {
			if free[i] < free[w] {
				w = i
			}
		}
		free[w] += d
	}
	var longest float64
	for _, t := range free {
		if t > longest {
			longest = t
		}
	}
	return longest
}

func (l *rungs) invariantRungs() error {
	l.rep.set("invariant.fingerprint_ms", l.medianOf(l.k, "invariant.Fingerprint", func() { invariant.Fingerprint(l.full) }))
	ctx, cancel := studyCtx()
	defer cancel()
	var err error
	checked := l.medianOf(l.k, "ebs.Run.check", func() {
		runtime.GC()
		o := l.runOpts()
		o.Check = true
		_, err = l.p.sim.Run(ctx, o)
	})
	l.rep.set("invariant.check_ratio", checked/l.runMS)
	return err
}

// unattributed is what outside-in timing cannot split: the engine's CPU
// minus the busy time of the layers it calls, measured on the rungs above —
// batch fill, shard scheduling, dataset assembly, pools. It is reported as
// measured, negative included: a negative value says the layers cost less
// inside the engine than alone, and clamping it would hide that.
func (l *rungs) unattributed() error {
	l.rep.set("ebs.unattributed_ms", unattributedMS(l.runCPU, l.busyMS))
	return nil
}

func unattributedMS(runCPU, layerBusy float64) float64 { return runCPU - layerBusy }
