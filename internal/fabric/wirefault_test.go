package fabric

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ebslab/internal/invariant"
	"ebslab/internal/netblock/netblocktest"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
)

// wireFaultMix is the wire-fault mix the fabric must ride out: a quarter of
// all control-plane exchanges misbehave, spread over every kind the fault
// proxy injects.
var wireFaultMix = netblocktest.Mix{
	netblocktest.Reset: 0.05, netblocktest.Drop: 0.03, netblocktest.Delay: 0.05,
	netblocktest.Truncate: 0.04, netblocktest.Garbage: 0.04, netblocktest.Error: 0.04,
}

// TestReplicaSetSurvivesWireFaults runs a study on a replica set whose
// workers reach each replica through that replica's own seeded fault proxy
// (netblocktest, wrapping its dialer). The netblock client makes one attempt
// per call, so recovery is the fabric's alone: the worker's control link
// fails over and retransmits, the ledger re-offers a shard whose assign reply
// was lost and deduplicates a result whose reply was lost, and leader
// redirects steer the link back. For 1 and 3 replicas and 1-3 workers per
// seed, the run must deliver RunSpec.Run's dataset and sketches, pass the
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

	var proxies []*netblocktest.Proxy
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
			dials := rs.Dials()
			for id := range dials {
				p := netblocktest.New(netblocktest.Draw(seed*10+int64(id), wireFaultMix))
				dials[id] = p.Dial(dials[id])
				proxies = append(proxies, p)
			}
			ds := runUnderFaults(t, name, rs, dials, workers)
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
				co := rs.cos[id]
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
	for kind := netblocktest.Reset; kind <= netblocktest.Delay; kind++ {
		var fired int64
		for _, p := range proxies {
			fired += p.Injected(kind)
		}
		t.Logf("%s faults: %d", kind, fired)
		if fired == 0 {
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

// runUnderFaults runs the study on rs with n workers that reach it through
// dials and whose call timeout is short, since every dropped reply waits it
// out, and bounds the whole run.
func runUnderFaults(t *testing.T, name string, rs *ReplicaSet, dials []func() (net.Conn, error), n int) *trace.Dataset {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, WorkerConfig{Dials: dials, callTimeout: 150 * time.Millisecond})
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
