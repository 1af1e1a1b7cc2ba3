package fabric

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/netblock/netblocktest"
	"ebslab/internal/sketch"
)

// TestFabricWorkerRetriesLostResultReply is the regression test for the
// silent-coordinator hang: the server executes the worker's first ShardResult
// but never answers (exactly what a leader dying between commit and reply
// looks like). The worker's call timeout must fire, the link must redial and
// retransmit, and the ledger must absorb the retransmit without
// double-counting — the run completes in bounded time instead of hanging
// until the liveness reaper forgets the worker.
func TestFabricWorkerRetriesLostResultReply(t *testing.T) {
	wantDS, _ := baseline(t)
	stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
	co, err := NewCoordinator(Config{
		Fleet: testFleetConfig(), Opts: testOpts(stream), Shards: 3,
		heartbeatEvery: 50 * time.Millisecond,
		// Liveness alone must NOT be what rescues the run: it is far longer
		// than the budget this test allows for completion.
		livenessTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	srv := netblock.NewHandlerServer(co)
	var dropped atomic.Bool
	proxy := netblocktest.New(func(req *netblock.Request) netblocktest.Fault {
		if req.Op == netblock.OpShardResult && dropped.CompareAndSwap(false, true) {
			return netblocktest.Drop
		}
		return netblocktest.None
	})
	go srv.Serve(proxy.Listen(lb)) //nolint:errcheck — ends with the loopback
	t.Cleanup(func() {
		lb.Close()
		srv.Close()
	})

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{
			Dial:        lb.Dial,
			callTimeout: 300 * time.Millisecond,
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds, err := co.Wait(ctx)
	if err != nil {
		t.Fatalf("run never completed after the dropped reply: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker exited: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("run took %v: recovery rode the liveness reaper, not the call timeout", elapsed)
	}
	if !dropped.Load() {
		t.Fatal("fault proxy never fired; the test exercised nothing")
	}
	if got := invariant.Fingerprint(ds); got != wantDS {
		t.Fatalf("dataset fingerprint %s after retransmit, single-process %s", got, wantDS)
	}
	// The retransmitted frame must have been acknowledged via the dedup path:
	// every shard returned exactly once despite two uploads of one of them.
	l := co.Ledger()
	for i := range l.Dispatched {
		if l.Dispatched[i] != 1 || l.Returned[i] != 1 || l.Accepted[i] != 1 {
			t.Fatalf("shard %d ledger d=%d r=%d a=%d, want 1/1/1",
				i, l.Dispatched[i], l.Returned[i], l.Accepted[i])
		}
	}
}

// TestFabricWorkerFailsFastWhenControlPlaneDies kills the whole control plane
// between AssignShard and ShardResult. Before the call-timeout fix the worker
// hung forever inside the upload; now it must give up within its failover
// window and surface an error promptly.
func TestFabricWorkerFailsFastWhenControlPlaneDies(t *testing.T) {
	co, err := NewCoordinator(Config{
		Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 2,
		heartbeatEvery: 50 * time.Millisecond,
	})
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
	done := make(chan error, 1)
	var killedAt atomic.Int64
	go func() {
		// Fires on the first upload, after the shard simulation: the worst
		// window, with work in hand and nobody left to give it to.
		proxy := netblocktest.New(onFirstResult(func() netblocktest.Fault {
			killedAt.Store(time.Now().UnixNano())
			lb.Close()
			srv.Close()
			return netblocktest.None
		}))
		done <- RunWorker(context.Background(), WorkerConfig{
			Dial:           proxy.Dial(lb.Dial),
			callTimeout:    200 * time.Millisecond,
			failoverWindow: 500 * time.Millisecond,
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker exited cleanly with the control plane dead")
		}
		took := time.Since(time.Unix(0, killedAt.Load()))
		if took > 10*time.Second {
			t.Fatalf("worker needed %v to notice the dead control plane", took)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker hung on the dead control plane (the pre-fix behavior)")
	}
}

// TestOversizedShardFailsBeforeEncoding holds the worker's wire-cap check to
// running on the frame's computed size, before anything frame-sized exists:
// a partial whose frame would pass the 1 GiB cap (1,100 audit lines sharing
// one 1 MiB string, so the partial itself is small) is refused by
// resultParts with the "rerun with more shards" error for a few KiB of
// allocation. What is checked is the payload's own length: header room plus
// resultSize, which is what the parts of a partial under the cap add up to.
func TestOversizedShardFailsBeforeEncoding(t *testing.T) {
	line := strings.Repeat("x", 1<<20)
	p := &ebs.ShardPartial{Lo: 0, Hi: 4, Audit: make([]string, 1100)}
	for i := range p.Audit {
		p.Audit[i] = line
	}
	if size := commandHeaderLen + resultSize(p, 0); size <= netblock.MaxShardResultPayload {
		t.Fatalf("the test partial frames to %d bytes, under the %d-byte cap", size, netblock.MaxShardResultPayload)
	}
	var parts [][]byte
	var err error
	alloc := measureAlloc(func() { parts, err = resultParts(1, 0, p) })
	if err == nil || !strings.Contains(err.Error(), "rerun with more shards") {
		t.Fatalf("over-cap shard: %d parts, error %v; want the rerun-with-more-shards refusal", len(parts), err)
	}
	if alloc > 64<<10 {
		t.Fatalf("refusing the over-cap shard allocated %d bytes", alloc)
	}

	p.Audit = p.Audit[:1]
	if want := commandHeaderLen + resultSize(p, 0); len(joinedPayload(1, 0, p)) != want {
		t.Fatalf("payload is %d bytes, header room plus resultSize says %d", len(joinedPayload(1, 0, p)), want)
	}
}
