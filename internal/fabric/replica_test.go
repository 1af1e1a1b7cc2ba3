package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/consensus"
	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden leader-kill fixture under testdata")

// replicaConfig is the fixed replicated-control-plane setup the leader-kill
// tests share: 3 replicas, 5 shards, fast ticks so elections finish in tens
// of milliseconds, and a liveness timeout generously above the election time
// so workers are not spuriously reaped while the control plane is headless.
func replicaConfig(stream *sketch.Set, kills int) Config {
	opts := testOpts(stream)
	opts.Chaos = &chaos.Plan{LeaderKills: kills}
	return Config{
		Fleet: testFleetConfig(), Opts: opts, Shards: 5,
		heartbeatEvery:  20 * time.Millisecond,
		livenessTimeout: 2 * time.Second,
		tickEvery:       2 * time.Millisecond,
	}
}

// runReplicated drives a full distributed run over a replica set with n
// workers that dial every replica and follow leader redirects.
func runReplicated(t *testing.T, rs *ReplicaSet, n int) *trace.Dataset {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(context.Background(), WorkerConfig{
				Dials:          rs.Dials(),
				callTimeout:    2 * time.Second,
				failoverWindow: 20 * time.Second,
			})
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ds, err := rs.Wait(ctx)
	if err != nil {
		t.Fatalf("replicated run failed: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d exited: %v", i, err)
		}
	}
	return ds
}

// TestReplicaSetMatchesSingleProcess: with no chaos at all, a 3-replica
// control plane must be invisible — same dataset, same sketches as one
// process, with every mutation having travelled the consensus log.
func TestReplicaSetMatchesSingleProcess(t *testing.T) {
	wantDS, wantSK := baseline(t)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	cfg := replicaConfig(stream, 0)
	cfg.Opts.Chaos = nil
	rs, err := NewReplicaSet(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	ds := runReplicated(t, rs, 2)
	if got := invariant.Fingerprint(ds); got != wantDS {
		t.Fatalf("dataset fingerprint %s via replicated control plane, single-process %s", got, wantDS)
	}
	if stream.Fingerprint() != wantSK {
		t.Fatal("sketch fingerprint drifted through the replicated control plane")
	}
	tr := rs.Transitions()
	if len(tr) != 1 || tr[0].Term != 1 || tr[0].Leader != 0 {
		t.Fatalf("fault-free run saw transitions %+v, want the bootstrap leader only", tr)
	}
	if rs.KillsExecuted() != 0 {
		t.Fatalf("%d kills executed with no chaos plan", rs.KillsExecuted())
	}
}

// TestReplicasDeriveOnePlan: every replica of a set costs and plans the study
// on its own, and the replicated ledger indexes shards by ID, so the plans
// must be identical.
func TestReplicasDeriveOnePlan(t *testing.T) {
	rs, err := NewReplicaSet(replicaConfig(nil, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	want := rs.cos[0].Plan()
	if len(want) != 5 {
		t.Fatalf("replica 0 planned %v, want 5 shards", want)
	}
	for id := 1; id < 3; id++ {
		if got := rs.cos[id].Plan(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d planned %v, replica 0 %v", id, got, want)
		}
	}
}

type leaderKillGolden struct {
	// ScheduleFP pins the expanded chaos schedule (kill positions included).
	ScheduleFP string
	// DatasetFP is the merged dataset fingerprint — equal, by construction,
	// to the fault-free single-process fingerprint.
	DatasetFP string
	// Transitions is the leadership history, "term=T leader=L" per entry.
	Transitions []string
	// Kills is how many leader-kill windows actually fired.
	Kills int
}

func leaderKillGoldenPath() string {
	return filepath.Join("testdata", "golden", "leaderkill.json")
}

// TestReplicaSetLeaderKillGolden is the tentpole acceptance test: the chaos
// plan kills the coordinator leader mid-run, a successor is elected, workers
// fail over through redirects, and the run completes with the dataset
// byte-identical to a fault-free single-process run. The schedule, the
// leadership-transition log, and the dataset fingerprint are pinned to a
// golden fixture; regenerate after an intentional change with
//
//	go test ./internal/fabric -run TestReplicaSetLeaderKillGolden -update
func TestReplicaSetLeaderKillGolden(t *testing.T) {
	wantDS, wantSK := baseline(t)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	rs, err := NewReplicaSet(replicaConfig(stream, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	if rs.Schedule() == nil || len(rs.Schedule().LeaderKills) != 1 {
		t.Fatalf("plan expanded to %+v, want exactly one kill window", rs.Schedule())
	}

	ds := runReplicated(t, rs, 2)

	// The hard guarantee first, independent of the fixture: a leader died and
	// the dataset is still the fault-free one, bit for bit.
	if rs.KillsExecuted() != 1 {
		t.Fatalf("%d leader kills executed, want 1", rs.KillsExecuted())
	}
	got := leaderKillGolden{
		ScheduleFP: rs.Schedule().Fingerprint(),
		DatasetFP:  invariant.Fingerprint(ds),
		Kills:      rs.KillsExecuted(),
	}
	if got.DatasetFP != wantDS {
		t.Fatalf("dataset fingerprint %s after leader kill, fault-free single-process %s", got.DatasetFP, wantDS)
	}
	if stream.Fingerprint() != wantSK {
		t.Fatal("sketch fingerprint drifted through the leader kill")
	}
	for _, tr := range rs.Transitions() {
		got.Transitions = append(got.Transitions, fmt.Sprintf("term=%d leader=%d", tr.Term, tr.Leader))
	}
	if len(got.Transitions) < 2 {
		t.Fatalf("leadership log %v never shows a succession; the kill exercised nothing", got.Transitions)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(leaderKillGoldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(leaderKillGoldenPath(), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden leader-kill fixture updated: %s", leaderKillGoldenPath())
		return
	}
	blob, err := os.ReadFile(leaderKillGoldenPath())
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to create): %v", err)
	}
	var want leaderKillGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("golden fixture corrupt: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("leader-kill scenario drifted from the golden fixture.\n got: %+v\nwant: %+v\n(after an intentional change: go test ./internal/fabric -run TestReplicaSetLeaderKillGolden -update)", got, want)
	}
}

// TestReplicaSetRunStreamsThroughLeaderKill drives ReplicaSet.Run, the call
// ebssim -dist -replicas makes, on a streaming study whose acting leader is
// killed mid-run. The kill must fire, and the dataset and the merged sketch
// state must be a fault-free single-process run's: leader kills are
// control-plane chaos that no worker's schedule sees.
func TestReplicaSetRunStreamsThroughLeaderKill(t *testing.T) {
	oracle := sketch.NewSet(sketch.Config{})
	spec := replicaConfig(oracle, 0).runSpec()
	spec.Opts.Chaos = nil
	want, _, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	stream := sketch.NewSet(sketch.Config{})
	rs, err := NewReplicaSet(replicaConfig(stream, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ds, err := rs.Run(ctx, 2)
	if err != nil {
		t.Fatalf("replicated run failed: %v", err)
	}
	if rs.KillsExecuted() != 1 {
		t.Fatalf("%d leader kills executed, want 1", rs.KillsExecuted())
	}
	if got, want := invariant.Fingerprint(ds), invariant.Fingerprint(want); got != want {
		t.Fatalf("dataset fingerprint %s after leader kill, single-process %s", got, want)
	}
	if got, want := stream.Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("sketch fingerprint %s after leader kill, single-process %s", got, want)
	}
}

// TestLeaderKillHaltsAtTrigger: a leader kill takes effect at the apply that
// triggers it, not when its asynchronous teardown gets to run. With the
// teardown held until the workers have finished and drained, a leader that
// kept serving would finish the run alone; the halted one cannot, so the run
// completes only under an elected successor — with the fault-free dataset.
func TestLeaderKillHaltsAtTrigger(t *testing.T) {
	wantDS, _ := baseline(t)
	rs, err := NewReplicaSet(replicaConfig(nil, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	workersDone := make(chan struct{})
	rs.holdTeardown = func() { <-workersDone }
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(context.Background(), WorkerConfig{
				Dials: rs.Dials(), callTimeout: 2 * time.Second, failoverWindow: 20 * time.Second,
			}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ds, err := rs.Wait(ctx)
	if err != nil {
		t.Fatalf("replicated run failed: %v", err)
	}
	if rs.KillsExecuted() != 1 {
		t.Fatalf("%d leader kills executed, want 1", rs.KillsExecuted())
	}
	if tr := rs.Transitions(); len(tr) < 2 {
		t.Fatalf("leadership log %v shows no successor: the killed leader kept serving until its teardown", tr)
	}
	if fp := invariant.Fingerprint(ds); fp != wantDS {
		t.Fatalf("dataset fingerprint %s after leader kill, fault-free single-process %s", fp, wantDS)
	}
}

// TestCoordinatorRejectsBadReplicaConfig pins the construction-time guards.
func TestCoordinatorRejectsBadReplicaConfig(t *testing.T) {
	base := Config{Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 2}
	bad := base
	bad.Replicas = 3
	if _, err := NewCoordinator(bad); err == nil {
		t.Fatal("3 replicas without a transport accepted")
	}
	bad = base
	bad.Replicas = 3
	bad.ReplicaID = 3
	bad.Transport = noopTransport{}
	if _, err := NewCoordinator(bad); err == nil {
		t.Fatal("replica ID outside the set accepted")
	}
	if _, err := NewReplicaSet(base, 0); err == nil {
		t.Fatal("0-replica set accepted")
	}
	// Two kills leave one of three replicas: no quorum, and the run would wait
	// out its context instead of failing.
	if _, err := NewReplicaSet(replicaConfig(nil, 2), 3); err == nil {
		t.Fatal("3-replica set accepted 2 leader kills")
	}
	if rs, err := NewReplicaSet(replicaConfig(nil, MaxLeaderKills(3)), 3); err != nil {
		t.Fatalf("3-replica set refused %d leader kill(s): %v", MaxLeaderKills(3), err)
	} else {
		rs.Close()
	}
	// What ebs.RunSpec.Distributable refuses, the coordinator refuses.
	bad = base
	bad.Scenario = "replay,path=trace.csv"
	if _, err := NewCoordinator(bad); err == nil {
		t.Fatal("replay scenario, whose trace file no worker can read, accepted")
	}
	bad = base
	bad.Opts.Control = control.NewTimeline(1, bad.Opts.DurationSec)
	if _, err := NewCoordinator(bad); err == nil {
		t.Fatal("actuated (Opts.Control) run accepted")
	}
}

// TestReplicaSetConstructionSendsNothing is the regression test for the
// construction race: replica 0's ticker used to start while the set was still
// being built, so its first heartbeat indexed a coordinator slice that was
// still growing (a data race, and an index panic when the beat beat the
// append). A tick far shorter than one fleet generation makes that first
// heartbeat land mid-construction every time.
func TestReplicaSetConstructionSendsNothing(t *testing.T) {
	cfg := replicaConfig(nil, 0)
	cfg.tickEvery = 50 * time.Microsecond
	for i := 0; i < 4; i++ {
		rs, err := NewReplicaSet(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		rs.Close()
	}
}

// TestTCPReplicasMatchRunSpec drives the role `ebssim -workers-addr -peers
// -replica-id` runs: three coordinators on their own TCP listeners, wired by
// PeerTransport, and two workers that dial all three. A follower must answer
// a worker op with a StatusRedirect naming another replica as leader, and the
// merged dataset must be RunSpec.Run's.
func TestTCPReplicasMatchRunSpec(t *testing.T) {
	const replicas = 3
	var (
		listeners [replicas]net.Listener
		addrs     = make([]string, replicas)
		dials     = make([]func() (net.Conn, error), replicas)
	)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], addrs[i] = l, l.Addr().String()
		addr := addrs[i]
		dials[i] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	base := Config{
		Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 5,
		Replicas:        replicas,
		heartbeatEvery:  20 * time.Millisecond,
		livenessTimeout: 2 * time.Second,
	}
	cos := make([]*Coordinator, replicas)
	for i := range cos {
		pt := NewPeerTransport(i, addrs)
		cfg := base
		cfg.ReplicaID, cfg.Transport = i, pt
		co, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cos[i] = co
		srv := netblock.NewHandlerServer(co)
		go srv.Serve(listeners[i]) //nolint:errcheck — ends with Close
		t.Cleanup(func() {
			srv.Close()
			co.Stop()
			pt.Close()
		})
	}

	// A follower redirects a worker op to the leader by replica ID. Probe every
	// replica until one that is not leading answers with a known leader.
	redirected := false
	for deadline := time.Now().Add(10 * time.Second); !redirected && time.Now().Before(deadline); {
		for i := 0; i < replicas && !redirected; i++ {
			cl, err := netblock.DialConfig("tcp", addrs[i], netblock.Config{Timeout: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			_, err = cl.Call(netblock.OpHeartbeat, mustJSON(workerMsg{WorkerID: 1 << 40}))
			cl.Close()
			var re *netblock.RedirectError
			if !errors.As(err, &re) {
				continue // the leader itself (an unknown worker's beat), or a transport hiccup
			}
			r, ok := decodeRedirect(re.Info)
			if !ok {
				t.Fatalf("replica %d: undecodable redirect %q", i, re.Info)
			}
			if !r.Known {
				continue // mid-election
			}
			if r.Leader == i || r.Leader < 0 || r.Leader >= replicas {
				t.Fatalf("replica %d redirected to %+v, want another of the %d replicas", i, r, replicas)
			}
			redirected = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !redirected {
		t.Fatal("no follower answered with a known-leader redirect")
	}

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(context.Background(), WorkerConfig{
				Dials: dials, callTimeout: 2 * time.Second, failoverWindow: 20 * time.Second,
			})
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ds, err := cos[0].Wait(ctx)
	if err != nil {
		t.Fatalf("TCP replicated run failed: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d exited: %v", i, err)
		}
	}
	want, _, err := base.runSpec().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := invariant.Fingerprint(ds), invariant.Fingerprint(want); got != want {
		t.Fatalf("dataset fingerprint %s over TCP replicas, RunSpec.Run %s", got, want)
	}
}

type noopTransport struct{}

func (noopTransport) Send(consensus.Message) {}
