// Command ebssim runs the end-to-end EBS stack simulation and reports
// stack-level statistics: per-stage latency percentiles, worker-thread
// balance, throttle pressure, and storage-node traffic spread.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/fabric"
	"ebslab/internal/gateway"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/report"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
)

// roleFlags is the slice of the flag set that selects an execution role:
// single-process run, in-process fabric (-dist), or TCP coordinator
// (-workers-addr). At most one role may be selected; the TCP worker role is
// cmd/ebsd. What the run itself is — fleet, options, scenario, control
// policy — is the RunSpec beside it; shards is the study's fabric dimension,
// copied in because which roles it needs is the role check's to say.
type roleFlags struct {
	dist        int
	shards      int
	workersAddr string
	cpuProfile  string
	memProfile  string
	timing      bool
}

// validateFlags rejects contradictory role selections and an invalid run
// spec up front — spec is the very value ebssim runs — naming every flag
// involved so the exit is actionable instead of one role silently winning
// over the other or the run failing after startup.
func validateFlags(f roleFlags, spec ebs.RunSpec) error {
	if f.dist < 0 {
		return fmt.Errorf("-dist %d: want >= 0 (0 = single process)", f.dist)
	}
	if f.shards < 0 {
		return fmt.Errorf("-shards %d: want >= 0 (0 = default)", f.shards)
	}
	if f.shards > 0 && f.dist == 0 && f.workersAddr == "" {
		return fmt.Errorf("-shards %d cuts the study for the fabric and needs a distributed role, -dist or -workers-addr", f.shards)
	}
	if f.dist > 0 && f.workersAddr != "" {
		return fmt.Errorf("-dist runs the fabric in-process and -workers-addr serves it over TCP: the roles conflict, pass exactly one of -dist, -workers-addr")
	}
	if f.timing && (f.dist > 0 || f.workersAddr != "") {
		return fmt.Errorf("-timing reads the in-process engine's clocks and conflicts with the distributed roles -dist, -workers-addr: the fabric has no clocks yet")
	}
	if f.cpuProfile != "" && f.cpuProfile == f.memProfile {
		return fmt.Errorf("-cpuprofile and -memprofile both name %s: the second would overwrite the first", f.cpuProfile)
	}
	// What the study itself allows is the run description's to say (scenario
	// specs validate statically; replay trace files are only opened at bind
	// time).
	if err := spec.Validate(); err != nil {
		return err
	}
	if f.dist > 0 || f.workersAddr != "" {
		if err := spec.Distributable(); err != nil {
			return fmt.Errorf("-control and -scenario replay,... conflict with the distributed roles -dist, -workers-addr: %w", err)
		}
	}
	return nil
}

// defaultStudy is the study ebssim runs when no study flag is given.
func defaultStudy() gateway.StudySpec {
	return gateway.StudySpec{Seed: 1, DurationSec: 60, Nodes: 16, Users: 16, MaxVDs: 120}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is ebssim on explicit arguments and streams; it returns the exit code
// and leaves no goroutine or signal registration behind.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	study := defaultStudy()
	study.BindFlags(fs)
	var (
		rf      roleFlags
		workers = fs.Int("workers", 0, "simulation workers (0 = one per CPU)")
		verbose = fs.Bool("progress", false, "print simulation progress")
		stream  = fs.Bool("stream", false, "fold every IO into O(1)-memory streaming sketches and report online skewness metrics with an exact-vs-sketch accuracy table")
		out     = fs.String("out", "", "write the run's dataset (per-IO trace, per-second metrics, VM/VD specs) as CSV + JSONL into this directory; -scenario replay,path=DIR/trace.csv with the same study flags replays it")

		chaosOn     = fs.Bool("chaos", false, "inject a deterministic fault schedule (see -crashes, -storms, ...)")
		chaosSeed   = fs.Int64("chaos-seed", 0, "fault schedule seed (0 = follow -seed)")
		crashes     = fs.Int("crashes", 2, "BlockServer crash-and-recover windows to schedule")
		downSec     = fs.Int("down-sec", 5, "mean crash window length in seconds")
		penaltyUS   = fs.Float64("penalty-us", 0, "frontend-net latency penalty (us) for IOs hitting a crashed BS (0 = observe only)")
		storms      = fs.Int("storms", 1, "hot-tenant traffic storms to schedule")
		stormFactor = fs.Float64("storm-factor", 8, "demand multiplier inside a storm window")
	)
	fs.StringVar(&rf.workersAddr, "workers-addr", "", "run as fabric coordinator: listen on this address for ebsd workers and merge their shard results")
	fs.IntVar(&rf.dist, "dist", 0, "run the fabric in-process over a loopback transport with this many workers and verify the merged dataset against a single-process run")
	fs.StringVar(&rf.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run (any mode, -dist included) to this file; read it with go tool pprof")
	fs.StringVar(&rf.memProfile, "memprofile", "", "write an allocation profile, taken when the run ends, to this file")
	fs.BoolVar(&rf.timing, "timing", false, "print the run's time by engine stage, and the report's, on stderr (stdout is unchanged)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rf.shards = study.Shards

	spec := study.RunSpec()
	spec.Opts.Workers = *workers
	var sketchSet *sketch.Set
	if *stream {
		sketchSet = sketch.NewSet(sketch.Config{})
		spec.Opts.Stream = sketchSet
	}
	var chaosStats chaos.Stats
	if *chaosOn {
		spec.Opts.Chaos = &chaos.Plan{
			Seed:              *chaosSeed,
			BSCrashes:         *crashes,
			MeanDownSec:       *downSec,
			FailoverPenaltyUS: *penaltyUS,
			Storms:            *storms,
			StormFactor:       *stormFactor,
		}
		spec.Opts.ChaosStats = &chaosStats
	}
	if rf.timing {
		spec.Opts.Clocks = new(ebs.Clocks)
	}
	if *verbose {
		spec.Opts.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(stderr, "simulated %d/%d VDs\n", done, total)
			}
		}
	}
	if err := validateFlags(rf, spec); err != nil {
		fmt.Fprintln(stderr, "ebssim:", err)
		return 2
	}
	stopProfiles, err := startProfiles(rf.cpuProfile, rf.memProfile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ebssim:", err)
		return 1
	}
	defer stopProfiles()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var (
		ds   *trace.Dataset
		scWL scenario.Workload // the bound scenario of a local run
	)
	switch {
	case rf.dist > 0:
		ds, err = runDistVerified(ctx, stdout, stderr, spec, rf.dist, rf.shards)
	case rf.workersAddr != "":
		ds, err = runCoordinator(ctx, stderr, spec, rf.workersAddr, rf.shards)
	default:
		ds, scWL, err = runLocal(ctx, stdout, spec)
	}
	if err == nil && *out != "" {
		if err = trace.SaveDir(ds, *out); err == nil {
			fmt.Fprintf(stderr, "ebssim: wrote the dataset to %s\n", *out)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "ebssim:", err)
		return 1
	}
	reportStart := time.Now()
	top := ds.Topology
	dur := spec.Opts.DurationSec
	fmt.Fprintf(stdout, "simulated %d IOs over %ds (%d VDs)\n", len(ds.Trace), dur, simulatedVDs(study.MaxVDs, len(top.VDs)))
	if scWL != nil {
		fmt.Fprintf(stdout, "scenario: %s\n", scWL.Spec())
		if rp, ok := scWL.(*scenario.Replay); ok {
			st := rp.Stats()
			fmt.Fprintf(stdout, "  replay: schema %s, %d records parsed, %d kept (1/%d), %d reordered, %d clamped\n",
				st.Schema, st.Records, st.Kept, rp.EventSampleEvery(), st.Reordered, st.Clamped)
		}
	} else if spec.Scenario != "" {
		fmt.Fprintf(stdout, "scenario: %s (bound per fabric worker)\n", spec.Scenario)
	}
	fmt.Fprintln(stdout, "invariant suite: all conservation laws hold")
	if *chaosOn {
		fmt.Fprintln(stdout, spec.Opts.Chaos.Expand(study.Seed, chaos.Shape{BSs: top.StorageNodes, VDs: len(top.VDs), DurSec: dur}))
		fmt.Fprintln(stdout, chaosStats)
	}
	fmt.Fprintln(stdout)

	if *stream {
		printStream(stdout, sketchSet, ds)
	}

	// Per-stage latency percentiles.
	fmt.Fprintln(stdout, "latency by stage (us):")
	fmt.Fprintf(stdout, "  %-14s %8s %8s %8s\n", "stage", "p50", "p99", "mean")
	col := make([]float64, len(ds.Trace)) // one column at a time
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		for i := range ds.Trace {
			col[i] = float64(ds.Trace[i].Latency[st])
		}
		q := stats.Quantiles(col, 0.5, 0.99)
		fmt.Fprintf(stdout, "  %-14s %8.0f %8.0f %8.0f\n", st, q[0], q[1], stats.Mean(col))
	}
	for i := range ds.Trace {
		col[i] = ds.Trace[i].TotalLatency()
	}
	q := stats.Quantiles(col, 0.5, 0.99)
	fmt.Fprintf(stdout, "  %-14s %8.0f %8.0f %8.0f\n\n", "end-to-end", q[0], q[1], stats.Mean(col))

	// Worker-thread balance per node (top 5 busiest nodes, ties to the lower
	// id). The dataset laws hold every record to a positive size and a WT of
	// its node, so a node with records has a positive total.
	nodeTot := make([]float64, len(top.Nodes))
	wtLoad := make([][]float64, len(top.Nodes))
	for n := range top.Nodes {
		wtLoad[n] = make([]float64, top.Nodes[n].WorkerNum)
	}
	snLoad := make([]float64, top.StorageNodes)
	for i := range ds.Trace {
		r := &ds.Trace[i]
		wtLoad[r.Node][r.WT] += float64(r.Size)
		nodeTot[r.Node] += float64(r.Size)
		snLoad[r.Storage] += float64(r.Size)
	}
	var ranked []int
	for n, tot := range nodeTot {
		if tot > 0 {
			ranked = append(ranked, n)
		}
	}
	slices.SortStableFunc(ranked, func(a, b int) int { return cmp.Compare(nodeTot[b], nodeTot[a]) })
	fmt.Fprintln(stdout, "worker-thread balance (busiest nodes):")
	for _, n := range ranked[:min(len(ranked), 5)] {
		fmt.Fprintf(stdout, "  node %3d: %6.1f MiB total, WT-CoV %.2f\n",
			n, nodeTot[n]/(1<<20), stats.NormCoV(wtLoad[n]))
	}

	// Storage-node spread.
	snLoads := slices.DeleteFunc(snLoad, func(v float64) bool { return v == 0 })
	fmt.Fprintf(stdout, "\nstorage nodes touched: %d, inter-BS CoV %.2f\n", len(snLoads), stats.NormCoV(snLoads))
	if rf.timing {
		printClocks(stderr, spec.Opts.Clocks, time.Since(reportStart))
	}
	return 0
}

// startProfiles begins the CPU profile (when cpu names a file) and returns
// the function that ends the profiled region: it stops the CPU profile and
// writes the allocation profile (when mem names a file). Profile files are
// diagnostics, so a failure to write one is reported and the run goes on.
func startProfiles(cpu, mem string, stderr io.Writer) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(stderr, "ebssim: -cpuprofile:", err)
			}
		}
		if mem != "" {
			if err := writeAllocProfile(mem); err != nil {
				fmt.Fprintln(stderr, "ebssim: -memprofile:", err)
			}
		}
	}, nil
}

// writeAllocProfile writes every allocation site since start-up (the allocs
// profile: go tool pprof defaults to alloc_space, the view a "who regrows
// this buffer" question needs), after a collection so the counts are current.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printClocks writes the run's stage clocks and the time ebssim took to
// print its report on stdout, in milliseconds.
func printClocks(w io.Writer, c *ebs.Clocks, report time.Duration) {
	fmt.Fprintln(w, "engine clocks (ms; bind opens the scenario, observe and plan ahead of a controlled run, generate to sketch summed over the workers, finish and check after the join, report prints stdout):")
	names := strings.Fields("bind observe plan generate throttle latency emit sketch finish check report")
	for i, d := range []time.Duration{c.Bind, c.Observe, c.Plan, c.Generate, c.Throttle, c.Latency, c.Emit, c.Sketch, c.Finish, c.Check, report} {
		fmt.Fprintf(w, "  %-8s %10.3f\n", names[i], float64(d)/float64(time.Millisecond))
	}
}

// printStream reports the online skewness metrics computed from the merged
// sketch state and scores them against the exact batch recomputation over
// the retained dataset.
func printStream(stdout io.Writer, set *sketch.Set, ds *trace.Dataset) {
	sk := set.Skewness()
	fmt.Fprintln(stdout, "streaming skewness (sketch state only):")
	rows := [][2]string{
		{"IOs / bytes", fmt.Sprintf("%d / %.1f MiB", sk.IOs, sk.Bytes/(1<<20))},
		{"1%-CCR / 10%-CCR (VDs)", fmt.Sprintf("%.3f / %.3f", sk.CCR1, sk.CCR10)},
		{"NormCoV (VDs)", fmt.Sprintf("%.3f", sk.NormCoV)},
		{"P2A read / write / total", fmt.Sprintf("%.2f / %.2f / %.2f", sk.P2ARead, sk.P2AWrite, sk.P2ATotal)},
		{"EWMA Bps / mean RAR", fmt.Sprintf("%.3g / %.3f", sk.EWMABps, sk.MeanRAR)},
		{"write ratio (W-R)/(W+R)", fmt.Sprintf("%.3f", sk.WrRatio)},
		{"latency p50 / p99 (us)", fmt.Sprintf("%.0f / %.0f", sk.LatencyP50, sk.LatencyP99)},
		{"IO size p50 / p99 (B)", fmt.Sprintf("%.0f / %.0f", sk.SizeP50, sk.SizeP99)},
		{"active blocks / segments", fmt.Sprintf("%.0f / %.0f", sk.ActiveBlocks, sk.ActiveSegments)},
	}
	for _, row := range rows {
		fmt.Fprintf(stdout, "  %-26s %s\n", row[0], row[1])
	}
	fmt.Fprintln(stdout, "  hottest VDs (bytes):")
	for i, e := range sk.HotVDs {
		if i >= 5 {
			break
		}
		fmt.Fprintf(stdout, "    VD %4d  %8.1f MiB (+/- %.1f)\n", e.Key,
			float64(e.Count)/(1<<20), float64(e.Err)/(1<<20))
	}

	exact := sketch.ExactSkewness(ds, set.Config())
	fmt.Fprint(stdout, report.AccuracySection("exact batch vs streamed sketch:", []report.AccuracyRow{
		{Metric: "1%-CCR", Exact: exact.CCR1, Sketch: sk.CCR1, Bound: 1e-6},
		{Metric: "10%-CCR", Exact: exact.CCR10, Sketch: sk.CCR10, Bound: 1e-6},
		{Metric: "NormCoV", Exact: exact.NormCoV, Sketch: sk.NormCoV, Bound: 1e-6},
		{Metric: "P2A total", Exact: exact.P2ATotal, Sketch: sk.P2ATotal, Bound: 1e-6},
		{Metric: "mean RAR", Exact: exact.MeanRAR, Sketch: sk.MeanRAR, Bound: 1e-6},
		{Metric: "write ratio", Exact: exact.WrRatio, Sketch: sk.WrRatio, Bound: 1e-6},
		{Metric: "latency p50", Exact: exact.LatencyP50, Sketch: sk.LatencyP50, Bound: 0.02},
		{Metric: "latency p99", Exact: exact.LatencyP99, Sketch: sk.LatencyP99, Bound: 0.02},
		{Metric: "size p50", Exact: exact.SizeP50, Sketch: sk.SizeP50, Bound: 0.02},
		{Metric: "size p99", Exact: exact.SizeP99, Sketch: sk.SizeP99, Bound: 0.02},
		{Metric: "active blocks", Exact: exact.ActiveBlocks, Sketch: sk.ActiveBlocks, Bound: 0.10},
		{Metric: "active segments", Exact: exact.ActiveSegments, Sketch: sk.ActiveSegments, Bound: 0.10},
	}))
	fmt.Fprintf(stdout, "  hot-VD overlap %.2f, hot-segment overlap %.2f\n\n",
		sketch.Overlap(exact.HotVDs, sk.HotVDs),
		sketch.Overlap(exact.HotSegments, sk.HotSegments))
}

// simulatedVDs is how many disks a run capped at -max-vds covers on a fleet
// of fleetVDs disks: the cap where it bites, else (0 = no cap, or a cap past
// the fleet's end) every disk there is.
func simulatedVDs(maxVDs, fleetVDs int) int {
	if maxVDs > 0 {
		return min(maxVDs, fleetVDs)
	}
	return fleetVDs
}

// runLocal runs the spec in this process, printing a controlled run's
// mitigation summary. It opens the spec itself, where spec.Run would do, to
// return the bound scenario the report reads.
func runLocal(ctx context.Context, stdout io.Writer, spec ebs.RunSpec) (*trace.Dataset, scenario.Workload, error) {
	sim, opts, err := spec.Open()
	if err != nil {
		return nil, nil, err
	}
	ds, plan, err := sim.RunUnder(ctx, opts, spec.Control, spec.EpochSec)
	if err != nil {
		return nil, nil, err
	}
	if plan != nil {
		printPlan(stdout, plan)
	}
	return ds, opts.Scenario, nil
}

// printPlan prints the mitigation summary of a controlled run ahead of the
// regular stack report. The dataset the report sections consume is the
// actuated pass's, so every downstream number reflects life under mitigation.
func printPlan(stdout io.Writer, plan *control.Plan) {
	imb := control.Imbalance(plan.BSLoad)
	fmt.Fprintf(stdout, "control plane: policy %s, epoch %ds (%d epochs)\n", plan.Policy, plan.Timeline.EpochSec, len(plan.BSLoad))
	fmt.Fprintf(stdout, "  decisions: %d (%d migrate, %d evacuate, %d lend, %d rebind)\n", len(plan.Decisions),
		plan.Count(control.DecMigrate), plan.Count(control.DecEvacuate), plan.Count(control.DecLend), plan.Count(control.DecRebind))
	fmt.Fprintf(stdout, "  decision log %s\n", plan.LogFingerprint())
	fmt.Fprintf(stdout, "  inter-BS imbalance: mean CoV %.4f, max CoV %.4f, peak share %.3f\n",
		imb.MeanCoV, imb.MaxCoV, imb.PeakShare)
}

// runCoordinator listens on addr for worker daemons and merges their shard
// results into the run's dataset. After the run completes it keeps serving
// briefly so every worker can observe AssignDone and deregister before the
// listener goes away.
func runCoordinator(ctx context.Context, stderr io.Writer, spec ebs.RunSpec, addr string, shards int) (*trace.Dataset, error) {
	co, err := fabric.NewCoordinator(fabric.Config{Fleet: spec.Fleet, Opts: spec.Opts, Scenario: spec.Scenario, Shards: shards})
	if err != nil {
		return nil, err
	}
	defer co.Stop()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	fmt.Fprintf(stderr, "ebssim: waiting for workers on %s (ebsd -join %s)\n", l.Addr(), l.Addr())
	srv := netblock.NewHandlerServer(co)
	go srv.Serve(l) //nolint:errcheck — lifecycle ends with Close
	defer srv.Close()
	fmt.Fprintf(stderr, "ebssim: coordinator dispatching %d shards\n", len(co.Plan()))
	ds, err := co.Wait(ctx)
	if err != nil {
		return nil, err
	}
	drainDeadline := time.Now().Add(5 * time.Second)
	for co.Workers() > 0 && time.Now().Before(drainDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return ds, nil
}

// runDistVerified runs the whole fabric in-process (runDist), then re-runs
// the simulation single-process and fails unless the two dataset
// fingerprints are identical — the distributed determinism oracle behind the
// dist smoke row.
func runDistVerified(ctx context.Context, stdout, stderr io.Writer, spec ebs.RunSpec, n, shards int) (*trace.Dataset, error) {
	opts := spec.Opts
	distOpts := opts
	var distStream *sketch.Set
	if opts.Stream != nil {
		distStream = sketch.NewSet(opts.Stream.Config())
		distOpts.Stream = distStream
	}
	if opts.ChaosStats != nil {
		distOpts.ChaosStats = new(chaos.Stats)
	}
	distOpts.Progress = nil

	ds, err := runDist(ctx, stderr, fabric.Config{Fleet: spec.Fleet, Opts: distOpts, Scenario: spec.Scenario, Shards: shards}, n)
	if err != nil {
		return nil, err
	}

	// The single-process reference opens the same spec — fleet regenerated,
	// scenario rebuilt from its string and bound to it — exactly what each
	// fabric worker does, which is what makes the comparison meaningful.
	ref, _, err := spec.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("single-process reference run: %w", err)
	}
	distFP, refFP := invariant.Fingerprint(ds), invariant.Fingerprint(ref)
	fmt.Fprintf(stdout, "dist fingerprint   %s (%d workers)\n", distFP, n)
	fmt.Fprintf(stdout, "single fingerprint %s\n", refFP)
	if distFP != refFP {
		return nil, fmt.Errorf("distributed run diverged from single-process run")
	}
	if opts.Stream != nil && distStream.Fingerprint() != opts.Stream.Fingerprint() {
		return nil, fmt.Errorf("distributed sketch state diverged from single-process run")
	}
	fmt.Fprintln(stdout, "distributed == single-process: byte-identical")
	return ds, nil
}

// runDist runs the study on the in-process fabric: one coordinator served
// over a loopback listener and n workers, which join, run the shards and
// drain. It fails on the first worker error.
func runDist(ctx context.Context, stderr io.Writer, fc fabric.Config, n int) (*trace.Dataset, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	co, err := fabric.NewCoordinator(fc)
	if err != nil {
		return nil, err
	}
	defer co.Stop()
	lb := fabric.NewLoopback()
	srv := netblock.NewHandlerServer(co)
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(lb) //nolint:errcheck — ends with the loopback
	}()
	defer func() {
		srv.Close()
		lb.Close()
		<-served
	}()
	fmt.Fprintf(stderr, "ebssim: coordinator dispatching %d shards to %d in-process workers\n", len(co.Plan()), n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fabric.RunWorker(ctx, fabric.WorkerConfig{Dial: lb.Dial})
		}()
	}
	ds, err := co.Wait(ctx)
	if err != nil {
		cancel() // release the workers before waiting for them
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for i, werr := range errs {
		if werr != nil {
			return nil, fmt.Errorf("fabric worker %d: %w", i, werr)
		}
	}
	return ds, nil
}
