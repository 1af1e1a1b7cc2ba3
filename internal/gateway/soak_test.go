package gateway_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ebslab/internal/gateway"
	"ebslab/internal/testclock"
)

// TestSoakConcurrentTenants is the race/soak arm: eight tenant goroutines
// hammer one gateway — submitting, canceling, and polling concurrently —
// while the test body walks a fake clock forward a quarter second at a time.
// Run under -race this exercises every lock-ordering in the serving plane;
// the exit criteria are the conservation laws: nothing deadlocks, every
// study settles, no job leaks, and no tenant ever outran its token bucket.
func TestSoakConcurrentTenants(t *testing.T) {
	const (
		nTenants  = 8
		perTenant = 6
		rate      = 2.0
		burst     = 2.0
	)
	clock := testclock.AtUnix(5000)
	gw := gateway.New(gateway.Config{
		Now:                clock.Now,
		MaxConcurrent:      4,
		SubmitRate:         rate,
		SubmitBurst:        burst,
		MaxQueuedPerTenant: perTenant + 1,
	})
	defer gw.Close()

	spec := func(tenant, i int) gateway.StudySpec {
		// Three seeds per tenant, revisited: later rounds dedup against
		// earlier completions, mixing the dedup path into the soak.
		return gateway.StudySpec{
			Seed: int64(tenant*100 + i%3), DurationSec: 1, Nodes: 1, Users: 2,
			MaxVDs: 2, EventSampleEvery: 32,
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, nTenants)
	for ti := 0; ti < nTenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := fmt.Sprintf("soak-%d", ti)
			var prev uint64
			for i := 0; i < perTenant; i++ {
				reply, err := gw.Submit(tenant, spec(ti, i))
				if err != nil {
					errCh <- fmt.Errorf("%s submit %d: %v", tenant, i, err)
					return
				}
				// Cancel every third submission's predecessor: depending on
				// scheduling it is queued, running, or already terminal —
				// all three cancel paths get traffic.
				if i%3 == 2 && prev != 0 {
					if _, err := gw.Cancel(prev); err != nil {
						errCh <- fmt.Errorf("%s cancel %d: %v", tenant, prev, err)
						return
					}
				}
				if !reply.Deduped {
					prev = reply.StudyID
				}
				if _, err := gw.Status(reply.StudyID); err != nil {
					errCh <- fmt.Errorf("%s status: %v", tenant, err)
					return
				}
				if _, err := gw.Snapshot(reply.StudyID); err != nil {
					errCh <- fmt.Errorf("%s snapshot: %v", tenant, err)
					return
				}
				if _, err := gw.Stats(tenant); err != nil {
					errCh <- fmt.Errorf("%s stats: %v", tenant, err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(ti)
	}

	// Drive the fake clock while the tenants run, then keep driving until
	// the gateway drains: queued studies are gated on token refills, so
	// standing still would be the deadlock the test exists to rule out.
	submittersDone := make(chan struct{})
	go func() { wg.Wait(); close(submittersDone) }()
	deadline := time.Now().Add(120 * time.Second)
	drained := false
	for time.Now().Before(deadline) {
		clock.Advance(250 * time.Millisecond)
		gw.Poke()
		select {
		case <-submittersDone:
			l := gw.Ledger()
			if l.Queued == 0 && l.Running == 0 {
				drained = true
			}
		default:
		}
		if drained {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if !drained {
		t.Fatalf("gateway did not drain in 2 minutes: ledger %+v", gw.Ledger())
	}

	if err := gw.CheckLaws(true); err != nil {
		t.Fatalf("soak invariants: %v", err)
	}
	accounted := 0
	for ti := 0; ti < nTenants; ti++ {
		tenant := fmt.Sprintf("soak-%d", ti)
		st, err := gw.Stats(tenant)
		if err != nil {
			t.Fatalf("tenant %s has no ledger: %v", tenant, err)
		}
		accounted += st.Submitted + st.Deduped
	}
	if accounted != nTenants*perTenant {
		t.Fatalf("%d submissions accounted, want %d", accounted, nTenants*perTenant)
	}
}
