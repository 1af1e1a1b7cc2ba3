package fabric

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ebslab/internal/ebs"
	"ebslab/internal/testclock"
)

// TestLedgerFSMDeterministicReplay: the ledger is a pure function of the
// calls made on it and the times they are stamped with. Two ledgers driven
// through the identical script — including liveness reaping triggered purely
// by the stamps and a duplicate result — must give identical replies at
// every step and end on identical accounting, with every shard accepted
// once and the reaped shard's zombie result counted as returned.
func TestLedgerFSMDeterministicReplay(t *testing.T) {
	cfg := Config{
		Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 3,
		livenessTimeout: time.Second,
	}.withDefaults()
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, sim := co.Plan(), co.sim
	if len(plan) != 3 {
		t.Fatalf("planned %d shards, want 3", len(plan))
	}
	partial := func(shard int) *ebs.ShardPartial {
		p, err := sim.RunShard(context.Background(), testOpts(nil), plan[shard].Lo, plan[shard].Hi)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	parts := []*ebs.ShardPartial{partial(0), partial(1), partial(2)}

	// The script: two workers join; worker 1 takes a shard and goes silent;
	// worker 2 works through everything, a liveness reap rescuing worker 1's
	// shard; worker 1's zombie result for the reaped shard arrives late and is
	// dropped; worker 2 drains.
	script := func(f *shardLedger) []any {
		clock := testclock.AtUnix(50)
		var replies []any
		reply := func(r any, err error) {
			if err != nil {
				r = "error: " + err.Error()
			}
			replies = append(replies, r)
		}
		accounted := func(_ bool, err error) { reply(nil, err) }
		replies = append(replies, f.join(clock.Now()), f.join(clock.Now()))
		reply(f.assign(1, clock.Now())) // w1 takes shard A
		reply(f.assign(2, clock.Now())) // w2 takes shard B
		accounted(f.result(2, 1, parts[1], nil, clock.Now()))
		clock.Advance(2 * time.Second)  // w1 silent past liveness
		reply(f.assign(2, clock.Now())) // reaps w1, w2 inherits A
		accounted(f.result(2, 0, parts[0], nil, clock.Now()))
		accounted(f.result(1, 0, parts[0], nil, clock.Now())) // zombie dup
		reply(f.assign(2, clock.Now()))                       // w2 takes the last shard
		accounted(f.result(2, 2, parts[2], nil, clock.Now()))
		f.touch(2, clock.Now())
		f.reap(clock.Now())
		f.drain(2)
		return replies
	}
	a, b := newShardLedger(cfg, plan, nil), newShardLedger(cfg, plan, nil)
	ra, rb := script(a), script(b)
	for i := range ra {
		if !reflect.DeepEqual(ra[i], rb[i]) {
			t.Fatalf("step %d: replies diverged: %#v != %#v", i, ra[i], rb[i])
		}
	}
	if !reflect.DeepEqual(a.snapshot(), b.snapshot()) {
		t.Fatalf("ledgers diverged:\n%+v\n%+v", a.snapshot(), b.snapshot())
	}
	if len(a.workers) != 0 || len(b.workers) != 0 {
		t.Fatalf("workers left registered: %d and %d, want 0", len(a.workers), len(b.workers))
	}
	for _, f := range []*shardLedger{a, b} {
		lacking := 0
		for _, sh := range f.shards {
			if sh.partial == nil {
				lacking++
			}
		}
		if lacking != 0 || !f.done() {
			t.Fatalf("%d shards lack their partial (done %v), want 0 and done", lacking, f.done())
		}
	}
	l := a.snapshot()
	for i := range l.Accepted {
		if l.Accepted[i] != 1 {
			t.Fatalf("shard %d accepted %d results, want 1", i, l.Accepted[i])
		}
	}
	// The reaped shard was dispatched twice and — via the zombie — returned twice.
	if l.Dispatched[0] != 2 || l.Returned[0] != 2 {
		t.Fatalf("reaped shard d=%d r=%d, want 2/2", l.Dispatched[0], l.Returned[0])
	}
}

// TestLedgerFSMReapsReturningZombie: a reaped worker that comes back and takes
// a shard must be listed again, so that when it falls silent a second time the
// reaper requeues its shard instead of leaving it running until speculation.
// An assign from an ID the ledger never issued is refused.
func TestLedgerFSMReapsReturningZombie(t *testing.T) {
	cfg := Config{
		Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 3,
		livenessTimeout: time.Second, speculateAfter: time.Hour,
	}.withDefaults()
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := co.Plan()
	if len(plan) != 3 {
		t.Fatalf("planned %d shards, want 3", len(plan))
	}
	f := newShardLedger(cfg, plan, nil)
	clock := testclock.AtUnix(50)
	assign := func(worker uint64, want string, shard int) {
		t.Helper()
		a, err := f.assign(worker, clock.Now())
		if err != nil || a.Status != want || want == AssignShard && a.Shard != shard {
			t.Fatalf("worker %d assign = %+v (%v), want status %s (shard %d)", worker, a, err, want, shard)
		}
	}
	result := func(worker uint64, shard int) {
		t.Helper()
		p, err := co.sim.RunShard(context.Background(), testOpts(nil), plan[shard].Lo, plan[shard].Hi)
		if err != nil {
			t.Fatal(err)
		}
		if kept, err := f.result(worker, shard, p, nil, clock.Now()); err != nil || !kept || f.shards[shard].partial != p {
			t.Fatalf("worker %d result for shard %d not accepted (%v)", worker, shard, err)
		}
	}

	f.join(clock.Now()) // w1
	f.join(clock.Now()) // w2
	assign(1, AssignShard, 0)
	assign(2, AssignShard, 1)
	result(2, 1)
	clock.Advance(2 * time.Second)
	assign(2, AssignShard, 0) // reaps w1; w2 inherits shard 0
	assign(1, AssignShard, 2) // zombie w1 returns and takes shard 2
	result(2, 0)
	clock.Advance(2 * time.Second)
	f.touch(2, clock.Now()) // a heartbeat of w2; w1 silent again: reaped
	f.reap(clock.Now())
	assign(2, AssignShard, 2)

	if r, err := f.assign(3, clock.Now()); err == nil {
		t.Fatalf("assign from never-issued worker 3 = %+v, want an error", r)
	}
	if _, listed := f.workers[3]; listed {
		t.Fatal("never-issued worker 3 registered")
	}
}

// TestFirstAssignIsHeaviestShard: on a fleet where one disk carries at least
// 40 % of the predicted IOs, the first AssignShard hands out the range holding
// it, so the longest shard starts while the rest of the plan is still queued.
func TestFirstAssignIsHeaviestShard(t *testing.T) {
	co, lb := startFabric(t, Config{
		Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 5,
		livenessTimeout: time.Hour, speculateAfter: time.Hour,
	})
	costs, err := co.sim.DiskCosts(testOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	hot, total := 0, uint64(0)
	for vd, c := range costs {
		total += c
		if c > costs[hot] {
			hot = vd
		}
	}
	if 10*costs[hot] < 4*total {
		t.Fatalf("heaviest disk VD %d carries %d of %d predicted IOs, want >= 40 %% for the test to mean anything", hot, costs[hot], total)
	}
	a := newFakeWorker(t, lb).assign()
	if a.Status != AssignShard || a.Lo > hot || hot >= a.Hi {
		t.Fatalf("first assign = %+v, want the shard holding VD %d (plan %v)", a, hot, co.Plan())
	}
}

// TestLedgerFSMRetransmitAcknowledgedOnce covers the lost-reply window: a
// worker whose accepted result got no answer (the reply was lost on the
// wire) re-uploads the identical result; the ledger must acknowledge without
// double-counting, and a re-asked assign must re-offer the shard a worker is
// already running rather than dispatching a second copy.
func TestLedgerFSMRetransmitAcknowledgedOnce(t *testing.T) {
	cfg := Config{
		Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 2,
		livenessTimeout: time.Hour,
	}.withDefaults()
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := co.Plan()
	f := newShardLedger(cfg, plan, nil)
	at := time.Unix(50, 0)

	f.join(at)
	first, err := f.assign(1, at)
	if err != nil || first.Status != AssignShard {
		t.Fatalf("assign = %+v (%v), want a shard", first, err)
	}
	// Lost assign reply: the worker re-asks and must get the SAME shard back,
	// with no extra dispatch on the books.
	again, err := f.assign(1, at)
	if err != nil || again.Status != AssignShard || again.Shard != first.Shard {
		t.Fatalf("re-ask = %+v (%v), want shard %d again", again, err, first.Shard)
	}
	if d := f.snapshot().Dispatched[first.Shard]; d != 1 {
		t.Fatalf("re-offered shard dispatched %d times, want 1", d)
	}

	p, err := co.sim.RunShard(context.Background(), testOpts(nil), plan[first.Shard].Lo, plan[first.Shard].Hi)
	if err != nil {
		t.Fatal(err)
	}
	if kept, err := f.result(1, first.Shard, p, nil, at); err != nil || !kept || f.shards[first.Shard].partial != p {
		t.Fatalf("first upload rejected (%v)", err)
	}
	// Lost result reply: the retransmit is acknowledged but changes nothing.
	if kept, err := f.result(1, first.Shard, p, nil, at); err != nil || kept {
		t.Fatalf("retransmitted result answered %v (kept %v), want an acknowledgement it does not keep", err, kept)
	}
	l := f.snapshot()
	if l.Dispatched[first.Shard] != 1 || l.Returned[first.Shard] != 1 || l.Accepted[first.Shard] != 1 {
		t.Fatalf("retransmit leaked into the ledger: d=%d r=%d a=%d, want 1/1/1",
			l.Dispatched[first.Shard], l.Returned[first.Shard], l.Accepted[first.Shard])
	}
}
