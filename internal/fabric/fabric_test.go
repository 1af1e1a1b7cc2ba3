package fabric

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ebslab/internal/cluster"
	"ebslab/internal/diting"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/netblock/netblocktest"
	"ebslab/internal/sketch"
	"ebslab/internal/testclock"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

func testFleetConfig() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.NodesPerDC = 6
	cfg.DCs = 1
	cfg.BSPerDC = 3
	cfg.BSPerCluster = 3
	cfg.Users = 8
	cfg.DurationSec = 10
	return cfg
}

func testOpts(stream *sketch.Set) ebs.Options {
	return ebs.Options{
		DurationSec: 6, TraceSampleEvery: 2, EventSampleEvery: 4,
		MaxVDs: 16, Workers: 2, Check: true, Stream: stream,
	}
}

// baseline runs the same options single-process and returns the dataset and
// sketch fingerprints the fabric must reproduce.
func baseline(t *testing.T) (string, string) {
	t.Helper()
	fleet, err := workload.Generate(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	ds, err := ebs.New(fleet).Run(context.Background(), testOpts(stream))
	if err != nil {
		t.Fatal(err)
	}
	return invariant.Fingerprint(ds), stream.Fingerprint()
}

// startFabric serves a coordinator over a loopback and returns both plus a
// cleanup-registered shutdown.
func startFabric(t *testing.T, cfg Config) (*Coordinator, *Loopback) {
	t.Helper()
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	srv := netblock.NewHandlerServer(co)
	go srv.Serve(lb) //nolint:errcheck — ends with the loopback
	t.Cleanup(func() {
		lb.Close()
		srv.Close()
	})
	return co, lb
}

// runFabric executes a full distributed run with n workers (worker i runs
// workers[i] if present, a plain loopback worker otherwise) and returns the
// merged dataset plus each worker's exit error.
func runFabric(t *testing.T, co *Coordinator, lb *Loopback, n int, workers map[int]WorkerConfig) (*trace.Dataset, []error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wc, ok := workers[i]
		if !ok {
			wc = WorkerConfig{Dial: lb.Dial}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(context.Background(), wc)
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ds, err := co.Wait(ctx)
	if err != nil {
		t.Fatalf("fabric run failed: %v", err)
	}
	wg.Wait()
	return ds, errs
}

// onFirstResult is a netblocktest picker for a worker's dialer: act runs on
// the worker's first OpShardResult — its shard simulated, its upload on the
// wire — and chooses that exchange's fault; every other exchange passes.
func onFirstResult(act func() netblocktest.Fault) func(*netblock.Request) netblocktest.Fault {
	var once sync.Once
	return func(req *netblock.Request) netblocktest.Fault {
		f := netblocktest.None
		if req.Op == netblock.OpShardResult {
			once.Do(func() { f = act() })
		}
		return f
	}
}

// TestFabricMatchesSingleProcess is the tentpole's acceptance oracle: a
// 2-worker and a 4-worker loopback fabric must produce the byte-identical
// dataset (and sketch state) of a single-process run.
func TestFabricMatchesSingleProcess(t *testing.T) {
	wantDS, wantSK := baseline(t)
	for _, workers := range []int{2, 4} {
		stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
		co, lb := startFabric(t, Config{
			Fleet: testFleetConfig(), Opts: testOpts(stream), Shards: 5,
			heartbeatEvery: 20 * time.Millisecond,
		})
		ds, errs := runFabric(t, co, lb, workers, nil)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d: worker %d exited: %v", workers, i, err)
			}
		}
		if got := invariant.Fingerprint(ds); got != wantDS {
			t.Fatalf("workers=%d: dataset fingerprint %s, single-process %s", workers, got, wantDS)
		}
		if got := stream.Fingerprint(); got != wantSK {
			t.Fatalf("workers=%d: sketch fingerprint drifted", workers)
		}
		if co.Workers() != 0 {
			t.Fatalf("workers=%d: %d workers still registered after completion", workers, co.Workers())
		}
	}
}

// TestFabricScenarioMatchesRunSpec: Config.Scenario travels to every worker
// as a spec string, and each binds it to the fleet it regenerates. A
// scenario-shaped study on two workers must answer exactly what RunSpec.Run
// answers for the same description, dataset and sketch — and not what the
// scenario-less study answers.
func TestFabricScenarioMatchesRunSpec(t *testing.T) {
	const scenario = "bufferbloat,period=8,duty=0.5"
	plainDS, _ := baseline(t)
	oracle := sketch.NewSet(sketch.Config{})
	want, _, err := ebs.RunSpec{Fleet: testFleetConfig(), Opts: testOpts(oracle), Scenario: scenario}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantDS := invariant.Fingerprint(want)
	if wantDS == plainDS {
		t.Fatalf("scenario %q leaves the study's dataset unchanged; it tests nothing", scenario)
	}

	stream := sketch.NewSet(sketch.Config{})
	co, lb := startFabric(t, Config{
		Fleet: testFleetConfig(), Opts: testOpts(stream), Scenario: scenario, Shards: 5,
		heartbeatEvery: 20 * time.Millisecond,
	})
	ds, errs := runFabric(t, co, lb, 2, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d exited: %v", i, err)
		}
	}
	if got := invariant.Fingerprint(ds); got != wantDS {
		t.Fatalf("dataset fingerprint %s on the fabric, RunSpec.Run %s", got, wantDS)
	}
	if got, want := stream.Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("sketch fingerprint %s on the fabric, RunSpec.Run %s", got, want)
	}
}

// TestFabricWorkerCrashMidShard kills one worker after it finished computing
// its shard but before uploading — the worst moment, since the work is lost
// but the dispatch is on the books. The survivor must inherit the shard via
// liveness reaping and the merged dataset must still match single-process.
func TestFabricWorkerCrashMidShard(t *testing.T) {
	wantDS, _ := baseline(t)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	co, lb := startFabric(t, Config{
		Fleet: testFleetConfig(), Opts: testOpts(stream), Shards: 4,
		heartbeatEvery:  10 * time.Millisecond,
		livenessTimeout: 60 * time.Millisecond,
	})
	crash := errors.New("simulated worker crash")
	// The survivor's proxy holds its first upload back until the crash has
	// happened: otherwise it can finish all four shards before the crashing
	// worker is ever assigned one, and nothing crashes. Three shards stay
	// open for the other worker meanwhile. (The held upload holds the
	// survivor's link, so it may be reaped while it waits; its late result is
	// still the first for its shard.)
	crashed := make(chan struct{})
	survivor := netblocktest.New(onFirstResult(func() netblocktest.Fault { <-crashed; return netblocktest.None }))
	// The crasher's proxy resets its first upload's connection, and its
	// dialer refuses every dial after that: the worker dies with its result
	// unsent once its failover window closes.
	crasher := netblocktest.New(onFirstResult(func() netblocktest.Fault { close(crashed); return netblocktest.Reset }))
	crasherDial := crasher.Dial(lb.Dial)
	ds, errs := runFabric(t, co, lb, 2, map[int]WorkerConfig{
		0: {Dial: survivor.Dial(lb.Dial)},
		1: {
			Dial: func() (net.Conn, error) {
				select {
				case <-crashed:
					return nil, crash
				default:
					return crasherDial()
				}
			},
			failoverWindow: 100 * time.Millisecond,
		},
	})
	if !errors.Is(errs[1], crash) {
		t.Fatalf("crashing worker exited with %v, want the injected crash", errs[1])
	}
	if errs[0] != nil {
		t.Fatalf("surviving worker exited: %v", errs[0])
	}
	if got := invariant.Fingerprint(ds); got != wantDS {
		t.Fatalf("dataset fingerprint %s after crash, single-process %s", got, wantDS)
	}
	l := co.Ledger()
	redispatched := false
	for i := range l.Dispatched {
		if l.Dispatched[i] > 1 {
			redispatched = true
		}
		if l.Accepted[i] != 1 {
			t.Fatalf("shard %d accepted %d results", i, l.Accepted[i])
		}
	}
	if !redispatched {
		t.Fatal("no shard was ever re-dispatched; the crash exercised nothing")
	}
}

// fakeWorker drives the control plane directly (no RunWorker loop) so tests
// can sequence speculation and duplicate results deterministically.
type fakeWorker struct {
	t   *testing.T
	cl  *netblock.Client
	id  uint64
	sim *ebs.Sim
	opt ebs.Options
}

func newFakeWorker(t *testing.T, lb *Loopback) *fakeWorker {
	t.Helper()
	conn, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := netblock.NewClient(conn)
	t.Cleanup(func() { cl.Close() })
	raw, err := cl.Call(netblock.OpJoinFleet, nil)
	if err != nil {
		t.Fatal(err)
	}
	var join JoinReply
	if err := fromJSON(raw, &join); err != nil {
		t.Fatal(err)
	}
	sim, opts, err := join.open()
	if err != nil {
		t.Fatal(err)
	}
	return &fakeWorker{t: t, cl: cl, id: join.WorkerID, sim: sim, opt: opts}
}

func (w *fakeWorker) assign() AssignReply {
	w.t.Helper()
	raw, err := w.cl.Call(netblock.OpAssignShard, mustJSON(workerMsg{WorkerID: w.id}))
	if err != nil {
		w.t.Fatal(err)
	}
	var a AssignReply
	if err := fromJSON(raw, &a); err != nil {
		w.t.Fatal(err)
	}
	return a
}

func (w *fakeWorker) upload(a AssignReply) {
	w.t.Helper()
	p, err := w.sim.RunShard(context.Background(), w.opt, a.Lo, a.Hi)
	if err != nil {
		w.t.Fatal(err)
	}
	parts, err := resultParts(w.id, a.Shard, p)
	if err != nil {
		w.t.Fatal(err)
	}
	if _, err := w.cl.Call(netblock.OpShardResult, parts...); err != nil {
		w.t.Fatal(err)
	}
}

// TestFabricSpeculativeDuplicateDroppedOnce walks the straggler path end to
// end: shard 0 is dispatched to a slow worker, the speculation threshold
// passes, an idle worker gets a speculative copy of the SAME shard (on a
// different worker, per placement policy), both results come back, and
// exactly one is accepted.
func TestFabricSpeculativeDuplicateDroppedOnce(t *testing.T) {
	clock := testclock.AtUnix(1000)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	opts := testOpts(stream)
	co, lb := startFabric(t, Config{
		Fleet: testFleetConfig(), Opts: opts, Shards: 2,
		speculateAfter:  time.Minute,
		livenessTimeout: time.Hour, // liveness must not interfere here
		now:             clock.Now,
	})

	slow := newFakeWorker(t, lb)
	fast := newFakeWorker(t, lb)

	a0 := slow.assign()
	if a0.Status != AssignShard {
		t.Fatalf("slow worker got %q, want a shard", a0.Status)
	}
	a1 := fast.assign()
	if a1.Status != AssignShard || a1.Shard == a0.Shard {
		t.Fatalf("fast worker got %+v, want the other shard", a1)
	}
	fast.upload(a1)
	if co.Ledger().Accepted[a1.Shard] != 1 {
		t.Fatal("fast worker's own shard was rejected")
	}

	// Before the threshold: nothing placeable on the fast worker.
	if a := fast.assign(); a.Status != AssignWait {
		t.Fatalf("pre-threshold assign = %+v, want wait", a)
	}
	clock.Advance(2 * time.Minute)
	spec := fast.assign()
	if spec.Status != AssignShard || spec.Shard != a0.Shard {
		t.Fatalf("post-threshold assign = %+v, want speculative copy of shard %d", spec, a0.Shard)
	}

	// Both the straggler and the speculator finish: first result wins.
	slow.upload(a0)
	if l := co.Ledger(); l.Returned[a0.Shard] != 1 || l.Accepted[a0.Shard] != 1 {
		t.Fatal("straggler's result (first to arrive) was rejected")
	}
	fast.upload(spec) // acknowledged and dropped: the ledger below shows 2/2/1

	l := co.Ledger()
	if l.Dispatched[a0.Shard] != 2 || l.Returned[a0.Shard] != 2 || l.Accepted[a0.Shard] != 1 {
		t.Fatalf("speculated shard ledger d=%d r=%d a=%d, want 2/2/1",
			l.Dispatched[a0.Shard], l.Returned[a0.Shard], l.Accepted[a0.Shard])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantDS, wantSK := baseline(t)
	if got := invariant.Fingerprint(ds); got != wantDS {
		t.Fatalf("dataset fingerprint %s with duplicate, single-process %s", got, wantDS)
	}
	if stream.Fingerprint() != wantSK {
		t.Fatal("sketch fingerprint drifted through the duplicate path")
	}
}

// TestFabricDrainCompletesCurrentShard: a drain requested while a shard is
// in flight must let that shard finish and upload, then deregister the
// worker — its result is on the books, and the coordinator forgets it.
func TestFabricDrainCompletesCurrentShard(t *testing.T) {
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	co, lb := startFabric(t, Config{
		Fleet: testFleetConfig(), Opts: testOpts(stream), Shards: 3,
		heartbeatEvery: 20 * time.Millisecond,
	})

	drain := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		// The picker fires on the first upload, after the simulation:
		// requesting the drain there proves the in-flight shard still
		// completes.
		proxy := netblocktest.New(onFirstResult(func() netblocktest.Fault {
			close(drain)
			return netblocktest.None
		}))
		done <- RunWorker(context.Background(), WorkerConfig{
			Dial:  proxy.Dial(lb.Dial),
			Drain: drain,
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("draining worker exited: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("draining worker never exited")
	}
	if co.Workers() != 0 {
		t.Fatalf("%d workers registered after drain, want 0", co.Workers())
	}
	l := co.Ledger()
	var accepted int
	for _, a := range l.Accepted {
		accepted += a
	}
	if accepted != 1 {
		t.Fatalf("drained worker left %d accepted shards, want exactly its in-flight 1", accepted)
	}
	if allAccepted(l) {
		t.Fatal("run reported done with shards still unexecuted")
	}

	// A fresh worker finishes the rest; the run still converges.
	if _, errs := runFabric(t, co, lb, 1, nil); errs[0] != nil {
		t.Fatalf("second worker exited: %v", errs[0])
	}
}

// TestFabricRefusesForeignSketchConfig: a shard result whose sketch set was
// built under another configuration than the run's (HLL precision 16 against
// the run's 12) could not be merged — the snapshot and final merges would
// index past the run's registers. The ledger refuses it with StatusError and
// leaves the shard open, and a real worker still finishes the run
// byte-identical to the single-process one.
func TestFabricRefusesForeignSketchConfig(t *testing.T) {
	wantDS, wantSK := baseline(t)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	co, lb := startFabric(t, Config{
		Fleet: testFleetConfig(), Opts: testOpts(stream), Shards: 3,
		heartbeatEvery: 20 * time.Millisecond,
	})
	w := newFakeWorker(t, lb)
	a := w.assign()
	if a.Status != AssignShard {
		t.Fatalf("assign = %+v, want a shard", a)
	}
	p, err := w.sim.RunShard(context.Background(), w.opt, a.Lo, a.Hi)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	foreign := p.Sketch.Config()
	foreign.HLLPrecision = 16
	p.Sketch = sketch.NewSet(foreign)
	parts, err := resultParts(w.id, a.Shard, p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.cl.Call(netblock.OpShardResult, parts...)
	// Errorf, not Fatalf: a ledger that accepts the result goes on to show
	// what that costs — the final merge below panics.
	if err == nil || !strings.Contains(err.Error(), "sketch config") {
		t.Errorf("foreign-config result answered %v, want a StatusError naming the sketch config", err)
	}
	if l := co.Ledger(); l.Returned[a.Shard] != 0 || l.Accepted[a.Shard] != 0 || allAccepted(l) {
		t.Errorf("refused result reached the ledger: r=%d a=%d", l.Returned[a.Shard], l.Accepted[a.Shard])
	}

	// The silent fake worker is reaped; a real one runs every shard.
	ds, errs := runFabric(t, co, lb, 1, nil)
	if errs[0] != nil {
		t.Fatalf("worker exited: %v", errs[0])
	}
	if got := invariant.Fingerprint(ds); got != wantDS {
		t.Fatalf("dataset fingerprint %s, single-process %s", got, wantDS)
	}
	if stream.Fingerprint() != wantSK {
		t.Fatal("sketch fingerprint drifted")
	}
}

// TestShardResultCodecRoundTrip pins the bulk frame: a populated partial
// survives the wire bit-exactly, and corrupted frames are rejected, never
// accepted partially.
func TestShardResultCodecRoundTrip(t *testing.T) {
	fleet, err := workload.Generate(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	p, err := ebs.New(fleet).RunShard(context.Background(), testOpts(stream), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	p.Audit = []string{"VD 3: demo finding"}
	frame := encodeResult(42, 7, p)
	workerID, shardID, got, err := decodeResult(frame)
	if err != nil {
		t.Fatal(err)
	}
	if workerID != 42 || shardID != 7 || got.Lo != 2 || got.Hi != 7 {
		t.Fatalf("frame identity drifted: worker=%d shard=%d range=[%d,%d)", workerID, shardID, got.Lo, got.Hi)
	}
	// The shard's records sit packed in its tracers' chunks; the decoded
	// partial holds the same records, in the same order, in one slice of the
	// frame.
	var want []byte
	for _, chunk := range p.Chunks() {
		want = append(want, chunk...)
	}
	if len(want) == 0 || len(got.Records) != len(want) || len(got.Compute) != len(p.Compute) || len(got.Storage) != len(p.Storage) {
		t.Fatal("section lengths drifted")
	}
	for i := 0; i < len(want); i += trace.RecordSize {
		if !bytes.Equal(got.Records[i:i+trace.RecordSize], want[i:i+trace.RecordSize]) {
			t.Fatalf("record %d drifted", i/trace.RecordSize)
		}
	}
	if &got.Records[0] != &frame[8+4+4+4+4] {
		t.Fatal("the decoded partial copied its records out of the frame")
	}
	if m := runStarts(got.Records); !slices.Equal(got.Marks, m) || len(m) == 0 {
		t.Fatalf("decoded marks %v, want the run starts %v", got.Marks, m)
	}
	for i := range p.Compute {
		if got.Compute[i] != p.Compute[i] {
			t.Fatalf("compute row %d drifted", i)
		}
	}
	if got.Sketch == nil || got.Sketch.Fingerprint() != p.Sketch.Fingerprint() {
		t.Fatal("sketch state drifted")
	}
	if len(got.Emission) != len(p.Emission) || got.Emission[0] != p.Emission[0] {
		t.Fatal("emission slots drifted")
	}
	if len(got.Audit) != 1 || got.Audit[0] != p.Audit[0] {
		t.Fatal("audit strings drifted")
	}
	for cut := 0; cut < len(frame); cut += 97 {
		if _, _, _, err := decodeResult(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, _, _, err := decodeResult(append(frame, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// runStarts is every packed record that starts a sorted run after its
// predecessor.
func runStarts(recs []byte) []int {
	const size = trace.RecordSize
	var marks []int
	for i := 1; i < len(recs)/size; i++ {
		if diting.StartsRun(recs[(i-1)*size:i*size], recs[i*size:]) {
			marks = append(marks, i)
		}
	}
	return marks
}

// TestDecodedPartialsMergeLikeRun holds the decoder's run marks to the merge:
// a shard's records cross the wire as one slice in which every disk restarts
// the clock, the frame carries no marks, and the decoder notes the run starts
// as it reads the records. MergeShards over decoded partials — fanned out
// wherever GOMAXPROCS allows — must give Run's dataset.
func TestDecodedPartialsMergeLikeRun(t *testing.T) {
	fleet, err := workload.Generate(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim := ebs.New(fleet)
	opts := ebs.Options{DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: 1, Workers: 2}
	ref, err := sim.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Trace) < 2*4096 {
		t.Fatalf("%d records, too few for the merge to fan out", len(ref.Trace))
	}
	refFP := invariant.Fingerprint(ref)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var parts []*ebs.ShardPartial
		for i, r := range cluster.PlanShards(len(fleet.Topology.VDs), 3) {
			p, err := sim.RunShard(context.Background(), opts, r.Lo, r.Hi)
			if err != nil {
				t.Fatal(err)
			}
			_, _, got, err := decodeResult(encodeResult(1, i, p))
			p.Release()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Marks) == 0 {
				t.Fatalf("shard %v decoded without a run start", r)
			}
			parts = append(parts, got)
		}
		ds, err := sim.MergeShards(opts, parts)
		if err != nil {
			t.Fatal(err)
		}
		if fp := invariant.Fingerprint(ds); fp != refFP {
			t.Fatalf("GOMAXPROCS=%d: decoded partials merge to %s, Run to %s", procs, fp[:12], refFP[:12])
		}
	}
}

// TestShardResultPathBytes defends the shard-result path's memory traffic
// deterministically: one loopback study in the bench's dist shape (2
// workers, 8 shards, every IO a retained record) with the collector off may
// allocate at most 3.3x the bytes of the dataset it delivers (measured
// 2.9-3.1x). Three buffers remain on the way, each written once at its final
// size: the packed tracer chunks (pooled, so the first shards of a worker
// pay for them; the worker writes them onto the connection as they are),
// the received payload (whose record section the decoded partial aliases;
// its chunk-sized pieces add half a frame), and the merged dataset. A
// worker-side payload buffer holding a copy of the frame (3.4-3.7x), a
// decoded copy of the records, a shard-level merge, a copy of the frame on
// the coordinator, or a payload regrown by doubling each adds most of a
// dataset and breaks the bound. The race
// detector drops pooled tracer chunks at random (3.4x there), so under it
// the study and its fingerprint check run in full against the looser bound
// of 4.3x.
func TestShardResultPathBytes(t *testing.T) {
	bound := uint64(33) // tenths of the dataset
	if raceEnabled {
		bound = 43
	}
	cfg, opts, single := benchShapedStudy(t)
	want := invariant.Fingerprint(single)
	if len(single.Trace) < 100_000 {
		t.Fatalf("study retains %d records, want at least 100000 for the bound to mean anything", len(single.Trace))
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	co, lb := startFabric(t, Config{Fleet: cfg, Opts: opts, Shards: 8})
	ds, errs := runFabric(t, co, lb, 2, nil)
	runtime.ReadMemStats(&after)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d exited: %v", i, err)
		}
	}
	if got := invariant.Fingerprint(ds); got != want {
		t.Fatalf("dataset fingerprint %s, single-process %s", got, want)
	}
	dataset := uint64(len(ds.Trace)) * uint64(unsafe.Sizeof(trace.Record{}))
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d records, %d bytes allocated = %.1fx the dataset", len(ds.Trace), alloc, float64(alloc)/float64(dataset))
	if alloc > bound*dataset/10 {
		t.Fatalf("study allocated %d bytes to deliver a %d-byte dataset (%.1fx, bound %.1fx)", alloc, dataset, float64(alloc)/float64(dataset), float64(bound)/10)
	}
}

// benchShapedStudy is the bench's dist study shape — a 16-node fleet over
// 60 s, 120 VDs, every IO a retained record at 1/8 event thinning, one
// engine worker — with the dataset a single-process run of it produces.
// Cut into 8 shards it uploads 28.7 MB of results, seven of the eight
// frames over readPayload's two chunks.
func benchShapedStudy(t *testing.T) (workload.Config, ebs.Options, *trace.Dataset) {
	t.Helper()
	cfg := testFleetConfig()
	cfg.Seed = 7
	cfg.NodesPerDC = 16
	cfg.DurationSec = 60
	opts := ebs.Options{DurationSec: 60, TraceSampleEvery: 1, EventSampleEvery: 8, MaxVDs: 120, Workers: 1}
	fleet, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := ebs.New(fleet).Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, opts, single
}

// TestBackToBackStudiesRecycleFrames: two fabric studies in a row, the
// second reading its large result frames into the buffers the first one's
// Wait recycled, each reproduce the single-process fingerprint; after each
// Wait no partial still aliases its frame; and the first study's dataset
// still has its fingerprint once the second has overwritten those buffers,
// so nothing the merge returned aliases a recycled frame.
func TestBackToBackStudiesRecycleFrames(t *testing.T) {
	cfg, opts, single := benchShapedStudy(t)
	want := invariant.Fingerprint(single)
	var first *trace.Dataset
	for study := 0; study < 2; study++ {
		co, lb := startFabric(t, Config{Fleet: cfg, Opts: opts, Shards: 8})
		ds, errs := runFabric(t, co, lb, 2, nil)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("study %d: worker %d exited: %v", study, i, err)
			}
		}
		if got := invariant.Fingerprint(ds); got != want {
			t.Fatalf("study %d: dataset fingerprint %s, single-process %s", study, got, want)
		}
		co.mu.Lock()
		for i, sh := range co.ledger.shards {
			if sh.partial == nil || sh.partial.Records != nil || sh.frame != nil {
				t.Errorf("study %d: after Wait shard %d holds partial %v, frame of %d bytes", study, i, sh.partial != nil, len(sh.frame))
			}
		}
		co.mu.Unlock()
		if first == nil {
			first = ds
		}
	}
	if got := invariant.Fingerprint(first); got != want {
		t.Fatalf("the first study's dataset changed to %s once the second study reused its frames (want %s)", got, want)
	}
}

// allAccepted reports whether the ledger holds an accepted result for every
// shard: the run is done.
func allAccepted(l *invariant.ShardLedger) bool {
	for _, a := range l.Accepted {
		if a == 0 {
			return false
		}
	}
	return true
}
