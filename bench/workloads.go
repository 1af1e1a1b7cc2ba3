package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/fabric"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// "The study" every batch workload runs: ebssim's single-DC projection at
// 16 nodes, 60 s, 120 disks, one IO in 8 generated — 350 040 IOs.
//
// The fleet recipe is fixed at seed 7. A fleet's traffic is heavy-tailed, so
// another fleet seed is another amount of work (16 to 104 ms per sampled
// study over seeds 1-6), and ten seeds have to be ten measurements of the
// same thing. What -seed derives is everything that can vary at constant
// work: the latency sampling streams of every study (Options.Seed), the
// content of the replayed trace, and the order and repeats of the gateway's
// submissions.
const (
	studyFleetSeed = 7
	studyNodes     = 16
	studyDurSec    = 60
	studyMaxVDs    = 120
	studyThinning  = 8
	fabricShards   = 8
	fabricWorkers  = 2
	controlPolicy  = "reactive"
	controlEpoch   = 7
	replayRows     = 400_000
	replayDevices  = 64
	replayTickUS   = 149 // 400 000 rows x 149 µs = 59.6 s, inside the window
	studyCallLimit = 2 * time.Minute
)

// engineWorkers is the engine pool size: 2 as on the sizing host, never more
// than the machine has.
func engineWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func studyFleetConfig() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Seed = studyFleetSeed
	cfg.DCs = 1
	cfg.NodesPerDC = studyNodes
	cfg.BSPerDC = 12
	cfg.BSPerCluster = 6
	cfg.Users = 16
	cfg.DurationSec = studyDurSec
	return cfg
}

func studyOptions(seed int64) ebs.Options {
	return ebs.Options{
		Seed:             seed,
		DurationSec:      studyDurSec,
		TraceSampleEvery: 1,
		EventSampleEvery: studyThinning,
		MaxVDs:           studyMaxVDs,
		Workers:          engineWorkers(),
	}
}

// prepared is the product of one set-up: the inputs built from the seed and
// the closures that run the study on them.
type prepared struct {
	cfg   workload.Config
	fleet *workload.Fleet
	sim   *ebs.Sim
	// opts are the engine options of the workload's studies. Stream is left
	// nil: streams says whether the studies set one.
	opts    ebs.Options
	streams bool
	// ladderOpts returns opts with the workload's scenario bound, so the
	// ladder calls each layer on exactly the traffic the study simulates.
	ladderOpts func() (ebs.Options, error)

	// run executes one study the way the workload's user would. With a
	// recorder it wraps the calls it makes in spans under a "study" root.
	run func(rec *recorder, study int) (*outcome, error)
	// check runs the same study single-process with Check on.
	check func() (*outcome, error)
	// ios counts the simulated IOs (emitted, pre-sampling) of an outcome.
	ios func(*outcome) int64
}

func studyCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), studyCallLimit)
}

// prepareBase generates the study's fleet and simulator.
func prepareBase(seed int64) (*prepared, error) {
	return prepareBaseFor(studyFleetConfig(), studyOptions(seed))
}

func prepareBaseFor(cfg workload.Config, opts ebs.Options) (*prepared, error) {
	fleet, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	p := &prepared{
		cfg: cfg, fleet: fleet, sim: ebs.New(fleet), opts: opts,
		ios: func(o *outcome) int64 { return int64(len(o.ds.Trace)) },
	}
	p.ladderOpts = func() (ebs.Options, error) { return p.opts, nil }
	return p, nil
}

// plainRun is a study that is one ebs.Sim.Run call.
func (p *prepared) plainRun(rec *recorder, study int, opts ebs.Options) (*trace.Dataset, error) {
	ctx, cancel := studyCtx()
	defer cancel()
	root := rec.start("study", 0, study)
	defer rec.end(root)
	sp := rec.start("ebs.Run", root, study)
	ds, err := p.sim.Run(ctx, opts)
	rec.end(sp)
	return ds, err
}

func prepareSimTraced(seed int64) (*prepared, error) {
	p, err := prepareBase(seed)
	if err != nil {
		return nil, err
	}
	p.run = func(rec *recorder, study int) (*outcome, error) {
		ds, err := p.plainRun(rec, study, p.opts)
		if err != nil {
			return nil, err
		}
		return &outcome{ds: ds}, nil
	}
	p.check = func() (*outcome, error) {
		o := p.opts
		o.Check = true
		ds, err := p.plainRun(nil, 0, o)
		if err != nil {
			return nil, err
		}
		return &outcome{ds: ds}, nil
	}
	return p, nil
}

func prepareSimSampled(seed int64) (*prepared, error) {
	p, err := prepareBase(seed)
	if err != nil {
		return nil, err
	}
	p.opts.TraceSampleEvery = 0 // the paper's 1/3200
	p.streams = true
	run := func(rec *recorder, study int, check bool) (*outcome, error) {
		o := p.opts
		o.Check = check
		set := sketch.NewSet(sketch.Config{})
		o.Stream = set
		ds, err := p.plainRun(rec, study, o)
		if err != nil {
			return nil, err
		}
		return &outcome{ds: ds, extra: set.Fingerprint(), keep: set}, nil
	}
	p.run = func(rec *recorder, study int) (*outcome, error) { return run(rec, study, false) }
	p.check = func() (*outcome, error) { return run(nil, 0, true) }
	// Only 1 IO in 3200 becomes a record; the sketch set saw them all.
	p.ios = func(o *outcome) int64 { return int64(o.keep.(*sketch.Set).Totals().IOs) }
	return p, nil
}

func prepareControl(seed int64) (*prepared, error) {
	p, err := prepareBase(seed)
	if err != nil {
		return nil, err
	}
	pol, err := control.ByName(controlPolicy)
	if err != nil {
		return nil, err
	}
	ccfg := control.Config{EpochSec: controlEpoch}
	controlled := func(check bool) (*outcome, error) {
		ctx, cancel := studyCtx()
		defer cancel()
		o := p.opts
		o.Check = check
		ds, plan, err := p.sim.RunControlled(ctx, o, pol, ccfg)
		if err != nil {
			return nil, err
		}
		return &outcome{ds: ds, extra: plan.LogFingerprint(), keep: plan}, nil
	}
	p.run = func(rec *recorder, study int) (*outcome, error) {
		if rec == nil {
			return controlled(false)
		}
		// Traced: drive the passes RunControlled makes, one span each.
		root := rec.start("study", 0, study)
		defer rec.end(root)
		ds, plan, err := controlPasses(rec, root, study, p.sim, p.opts, pol, ccfg)
		if err != nil {
			return nil, err
		}
		return &outcome{ds: ds, extra: plan.LogFingerprint(), keep: plan}, nil
	}
	p.check = func() (*outcome, error) { return controlled(true) }
	return p, nil
}

// controlPasses is RunControlled taken apart along its exported seams:
// observe pass, planning context, BuildPlan, actuated pass.
func controlPasses(rec *recorder, parent, study int, sim *ebs.Sim, opts ebs.Options, pol control.Policy, ccfg control.Config) (*trace.Dataset, *control.Plan, error) {
	ctx, cancel := studyCtx()
	defer cancel()
	shape, err := sim.ObsShapeFor(opts, ccfg.EpochSec)
	if err != nil {
		return nil, nil, err
	}
	obs := control.NewObservation(shape)
	o := opts
	o.Observe = obs
	sp := rec.start("control.observe", parent, study)
	_, err = sim.Run(ctx, o)
	rec.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("observe pass: %w", err)
	}
	sp = rec.start("control.plan", parent, study)
	in, err := sim.ControlInput(opts, obs)
	var plan *control.Plan
	if err == nil {
		plan, err = control.BuildPlan(pol, ccfg, in)
	}
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	o = opts
	o.Control = plan.Timeline
	sp = rec.start("control.act", parent, study)
	ds, err := sim.Run(ctx, o)
	rec.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("actuated pass: %w", err)
	}
	return ds, plan, nil
}

// fabricInfo is what one fabric study leaves behind for the per-layer
// metrics.
type fabricInfo struct {
	requests int64
	plan     []cluster.ShardRange
	ledger   *invariant.ShardLedger
}

// fabricStudy runs one study the way `ebssim -dist 2` does: a fresh
// coordinator, a netblock server on an in-process loopback, two workers,
// Wait, teardown.
func fabricStudy(rec *recorder, parent, study int, cfg workload.Config, opts ebs.Options) (*trace.Dataset, fabricInfo, error) {
	ctx, cancel := studyCtx()
	defer cancel()
	opts.Workers = 1 // one engine worker per fabric worker: 2 busy threads in all
	root := rec.start("fabric.study", parent, study)
	defer rec.end(root)

	sp := rec.start("fabric.standup", root, study)
	co, err := fabric.NewCoordinator(fabric.Config{Fleet: cfg, Opts: opts, Shards: fabricShards})
	if err != nil {
		rec.end(sp)
		return nil, fabricInfo{}, err
	}
	lb := fabric.NewLoopback()
	srv := netblock.NewHandlerServer(co)
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(lb) //nolint:errcheck — ends with net.ErrClosed at teardown
	}()
	var wg sync.WaitGroup
	errs := make([]error, fabricWorkers)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fabric.RunWorker(ctx, fabric.WorkerConfig{Dial: lb.Dial})
		}()
	}
	rec.end(sp)

	sp = rec.start("fabric.wait", root, study)
	ds, err := co.Wait(ctx)
	rec.end(sp)

	sp = rec.start("fabric.teardown", root, study)
	if err != nil {
		cancel() // release the workers before waiting for them
	}
	wg.Wait()
	info := fabricInfo{requests: srv.Requests(), plan: co.Plan(), ledger: co.Ledger()}
	srv.Close()
	lb.Close()
	<-served
	co.Stop()
	rec.end(sp)
	if err != nil {
		return nil, info, err
	}
	for w, werr := range errs {
		if werr != nil {
			return nil, info, fmt.Errorf("fabric worker %d: %w", w, werr)
		}
	}
	return ds, info, nil
}

func prepareDist(seed int64) (*prepared, error) {
	p, err := prepareBase(seed)
	if err != nil {
		return nil, err
	}
	p.run = func(rec *recorder, study int) (*outcome, error) {
		root := rec.start("study", 0, study)
		defer rec.end(root)
		ds, info, err := fabricStudy(rec, root, study, p.cfg, p.opts)
		if err != nil {
			return nil, err
		}
		return &outcome{ds: ds, keep: info}, nil
	}
	// The reference is the single-process run of the same spec: the fabric
	// must reproduce it byte for byte.
	p.check = func() (*outcome, error) {
		o := p.opts
		o.Check = true
		ds, err := p.plainRun(nil, 0, o)
		if err != nil {
			return nil, err
		}
		return &outcome{ds: ds}, nil
	}
	return p, nil
}

// synthTianchi renders a seed-derived tianchi-schema trace (device, op,
// offset, length, timestamp-µs): heavy-tailed sizes over 64 devices, one
// row every 149 µs.
func synthTianchi(seed int64, rows int) []byte {
	rng := splitmix(uint64(seed) ^ 0x7e91a7)
	buf := make([]byte, 0, rows*34)
	for i := 0; i < rows; i++ {
		z := rng.next()
		buf = strconv.AppendUint(buf, z%replayDevices, 10)
		if z>>8&3 == 0 {
			buf = append(buf, ",W,"...)
		} else {
			buf = append(buf, ",R,"...)
		}
		buf = strconv.AppendUint(buf, (z>>16%4096)*4096, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, 512*(1+z>>32%64), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, 1_000_000+uint64(i)*replayTickUS, 10)
		buf = append(buf, '\n')
	}
	return buf
}

var replayConfig = scenario.ReplayConfig{Path: "bench.csv", Schema: scenario.SchemaTianchi, SampleEvery: 1, TimeScale: 1}

func prepareReplay(seed int64) (*prepared, error) {
	p, err := prepareBase(seed)
	if err != nil {
		return nil, err
	}
	csv := synthTianchi(seed, replayRows)
	// Every device hashes onto one of the fleet's disks; simulate them all
	// so each ingested row is one simulated IO.
	p.opts.MaxVDs = 0
	run := func(rec *recorder, study int, check bool) (*outcome, error) {
		ctx, cancel := studyCtx()
		defer cancel()
		root := rec.start("study", 0, study)
		defer rec.end(root)
		sp := rec.start("scenario.Ingest", root, study)
		rp, err := replayConfig.Ingest(bytes.NewReader(csv), p.fleet)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		o := p.opts
		o.Check = check
		o.Scenario = rp
		o.EventSampleEvery = rp.EventSampleEvery()
		sp = rec.start("ebs.Run", root, study)
		ds, err := p.sim.Run(ctx, o)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		return &outcome{ds: ds, keep: rp}, nil
	}
	p.run = func(rec *recorder, study int) (*outcome, error) { return run(rec, study, false) }
	p.check = func() (*outcome, error) { return run(nil, 0, true) }
	p.ladderOpts = func() (ebs.Options, error) {
		rp, err := replayConfig.Ingest(bytes.NewReader(csv), p.fleet)
		if err != nil {
			return ebs.Options{}, err
		}
		o := p.opts
		o.Scenario = rp
		o.EventSampleEvery = rp.EventSampleEvery()
		return o, nil
	}
	return p, nil
}
