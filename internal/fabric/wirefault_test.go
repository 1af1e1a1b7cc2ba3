package fabric

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
)

// wireFaultMix is the chaos wire-fault mix the fabric must ride out: a
// quarter of all control-plane exchanges misbehave, spread over every kind
// the netblock server injects.
var wireFaultMix = chaos.NetFaults{
	ResetRate: 0.05, DropRate: 0.03, DelayRate: 0.05,
	TruncateRate: 0.04, GarbageRate: 0.04, ErrorRate: 0.04,
	DelayUS: 200,
}

// TestReplicaSetSurvivesWireFaults runs a study on a replica set whose every
// replica listener carries the chaos wire-fault hook. The netblock client
// makes one attempt per call, so recovery is the fabric's alone: the worker's
// control link fails over and retransmits, the ledger re-offers a shard whose
// assign reply was lost and deduplicates a result whose reply was lost, and
// leader redirects steer the link back. For 1 and 3 replicas and 1-3 workers
// per seed, the run must deliver RunSpec.Run's dataset and sketches, pass the
// fabric accounting and leadership laws, and leave no goroutine behind; every
// fault kind must have fired across the seeds.
func TestReplicaSetSurvivesWireFaults(t *testing.T) {
	base := replicaConfig(nil, 0)
	base.Opts.Chaos = nil
	// A dropped reply costs the worker one call timeout; slower beats keep
	// the control traffic, and so the drops, few.
	base.heartbeatEvery = 100 * time.Millisecond
	ref := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	spec := base
	spec.Opts.Stream = ref
	want, _, err := spec.runSpec().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantDS, wantSK := invariant.Fingerprint(want), ref.Fingerprint()

	// fired counts injected faults by kind; slot FaultNone counts delays.
	var fired [netblock.FaultGarbage + 1]atomic.Int64
	goroutines := runtime.NumGoroutine()
	for _, replicas := range []int{1, 3} {
		for seed := int64(1); seed <= 6; seed++ {
			workers := 1 + int(seed)%3
			name := fmt.Sprintf("replicas=%d/seed=%d/workers=%d", replicas, seed, workers)
			cfg := base
			cfg.Opts.Stream = sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
			rs, err := NewReplicaSet(cfg, replicas)
			if err != nil {
				t.Fatal(err)
			}
			for id, srv := range rs.srvs {
				plan := chaos.Plan{Seed: seed*10 + int64(id), Net: wireFaultMix}
				hook := plan.NewFaultHook(0)
				srv.SetFaultHook(func(req *netblock.Request) netblock.FaultDecision {
					d := hook(req)
					if d.Fault != netblock.FaultNone || d.DelayUS > 0 {
						fired[d.Fault].Add(1)
					}
					return d
				})
			}
			ds := runUnderFaults(t, name, rs, workers)
			rs.Close()
			if got := invariant.Fingerprint(ds); got != wantDS {
				t.Fatalf("%s: dataset fingerprint %s under wire faults, RunSpec.Run %s", name, got, wantDS)
			}
			if cfg.Opts.Stream.Fingerprint() != wantSK {
				t.Fatalf("%s: sketch fingerprint drifted under wire faults", name)
			}
			var rep invariant.Report
			done := 0
			for id := 0; id < replicas; id++ {
				co := rs.Coordinator(id)
				select {
				case <-co.DoneCh():
				default:
					continue // a follower may trail the last commit
				}
				done++
				l := co.Ledger()
				invariant.CheckFabricAccounting(&rep, l)
				t.Logf("%s: replica %d ledger dispatched %v returned %v accepted %v", name, id, l.Dispatched, l.Returned, l.Accepted)
			}
			invariant.CheckLeadershipContinuity(&rep, replicas, rs.Transitions())
			if err := rep.Err(); err != nil || done == 0 {
				t.Fatalf("%s: %d replicas done, laws: %v", name, done, err)
			}
		}
	}
	for f := range fired {
		kind := netblock.Fault(f).String()
		if netblock.Fault(f) == netblock.FaultNone {
			kind = "delay"
		}
		t.Logf("%s faults: %d", kind, fired[f].Load())
		if fired[f].Load() == 0 {
			t.Errorf("no %s fault fired across the seeds; the mix exercised less than it claims", kind)
		}
	}
	for i := 0; runtime.NumGoroutine() > goroutines && i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after the runs, %d before them:\n%s", got, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// runUnderFaults runs the study on rs with n workers whose call timeout is
// short, since every dropped reply waits it out, and bounds the whole run.
func runUnderFaults(t *testing.T, name string, rs *ReplicaSet, n int) *trace.Dataset {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, WorkerConfig{Dials: rs.Dials(), callTimeout: 150 * time.Millisecond})
		}(i)
	}
	ds, err := rs.Wait(ctx)
	if err != nil {
		rs.Close()
		wg.Wait()
		t.Fatalf("%s: run failed under wire faults: %v", name, err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: worker %d exited: %v", name, i, err)
		}
	}
	return ds
}
