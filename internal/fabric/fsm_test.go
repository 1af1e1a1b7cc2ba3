package fabric

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ebslab/internal/testclock"
)

// TestLedgerCommandCodecRoundTrip pins the replicated command frame.
func TestLedgerCommandCodecRoundTrip(t *testing.T) {
	cases := []command{
		{Kind: cmdJoin, At: 12345},
		{Kind: cmdAssign, Worker: 7, At: -9},
		{Kind: cmdResult, Worker: 2, At: 1e9, Frame: []byte{1, 2, 3, 4}},
		{Kind: cmdHeartbeat, Worker: ^uint64(0), At: 0},
		{Kind: cmdDrain, Worker: 1, At: 77},
	}
	for _, want := range cases {
		got, err := decodeCommand(encodeCommand(&want))
		if err != nil {
			t.Fatalf("kind %d: %v", want.Kind, err)
		}
		if got.Kind != want.Kind || got.Worker != want.Worker || got.At != want.At ||
			string(got.Frame) != string(want.Frame) {
			t.Fatalf("kind %d round-trip drifted: %+v != %+v", want.Kind, got, want)
		}
	}
	if _, err := decodeCommand(nil); err == nil {
		t.Fatal("empty command decoded")
	}
	if _, err := decodeCommand([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("kind 0 accepted")
	}
	frame := encodeCommand(&command{Kind: cmdJoin})
	if _, err := decodeCommand(append(frame, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := decodeCommand(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

// TestLedgerFSMDeterministicReplay is the replication soundness test: two FSM
// instances fed the identical committed command sequence — including liveness
// reaping triggered purely by command timestamps and a duplicate result — must
// emit identical replies at every step and converge on identical ledgers.
// This is the property that lets a follower take over mid-run: its ledger IS
// the leader's ledger.
func TestLedgerFSMDeterministicReplay(t *testing.T) {
	cfg := Config{
		Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 3,
		livenessTimeout: time.Second,
	}.withDefaults()
	co, err := newCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, sim := co.Plan(), co.sim
	if len(plan) != 3 {
		t.Fatalf("planned %d shards, want 3", len(plan))
	}
	partialFrame := func(worker uint64, shard int) []byte {
		p, err := sim.RunShard(context.Background(), testOpts(nil), plan[shard].Lo, plan[shard].Hi)
		if err != nil {
			t.Fatal(err)
		}
		return encodeResult(worker, shard, p)
	}

	clock := testclock.AtUnix(50)
	at := func() int64 { return clock.Now().UnixNano() }
	// The script: two workers join; worker 1 takes a shard and goes silent;
	// worker 2 works through everything, a liveness reap rescuing worker 1's
	// shard; worker 1's zombie result for the reaped shard arrives late and is
	// dropped; worker 2 drains.
	var script [][]byte
	step := func(c command) { script = append(script, encodeCommand(&c)) }
	step(command{Kind: cmdJoin, At: at()})              // worker 1
	step(command{Kind: cmdJoin, At: at()})              // worker 2
	step(command{Kind: cmdAssign, Worker: 1, At: at()}) // w1 takes shard A
	step(command{Kind: cmdAssign, Worker: 2, At: at()}) // w2 takes shard B
	step(command{Kind: cmdResult, Worker: 2, At: at(), Frame: partialFrame(2, 1)})
	clock.Advance(2 * time.Second)                      // w1 silent past liveness
	step(command{Kind: cmdAssign, Worker: 2, At: at()}) // reaps w1, w2 inherits A
	step(command{Kind: cmdResult, Worker: 2, At: at(), Frame: partialFrame(2, 0)})
	step(command{Kind: cmdResult, Worker: 1, At: at(), Frame: partialFrame(1, 0)}) // zombie dup
	step(command{Kind: cmdAssign, Worker: 2, At: at()})                            // w2 takes the last shard
	step(command{Kind: cmdResult, Worker: 2, At: at(), Frame: partialFrame(2, 2)})
	step(command{Kind: cmdHeartbeat, Worker: 2, At: at()})
	step(command{Kind: cmdDrain, Worker: 2, At: at()})

	a, b := newLedgerFSM(cfg, plan, nil), newLedgerFSM(cfg, plan, nil)
	for i, cmd := range script {
		ra, rb := a.Apply(uint64(i+1), cmd), b.Apply(uint64(i+1), cmd)
		if !reflect.DeepEqual(describeReply(ra), describeReply(rb)) {
			t.Fatalf("step %d: replies diverged: %#v != %#v", i, ra, rb)
		}
	}
	if !reflect.DeepEqual(a.ledger(), b.ledger()) {
		t.Fatalf("ledgers diverged:\n%+v\n%+v", a.ledger(), b.ledger())
	}
	if len(a.workers) != 0 || len(b.workers) != 0 {
		t.Fatalf("workers left registered: %d and %d, want 0", len(a.workers), len(b.workers))
	}
	for _, f := range []*ledgerFSM{a, b} {
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
	l := a.ledger()
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
	co, err := newCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := co.Plan()
	if len(plan) != 3 {
		t.Fatalf("planned %d shards, want 3", len(plan))
	}
	f := newLedgerFSM(cfg, plan, nil)
	clock := testclock.AtUnix(50)
	index := uint64(0)
	apply := func(c command) any {
		c.At = clock.Now().UnixNano()
		index++
		return f.Apply(index, encodeCommand(&c))
	}
	assign := func(worker uint64, want string, shard int) {
		t.Helper()
		a, ok := apply(command{Kind: cmdAssign, Worker: worker}).(AssignReply)
		if !ok || a.Status != want || want == AssignShard && a.Shard != shard {
			t.Fatalf("worker %d assign = %+v, want status %s (shard %d)", worker, a, want, shard)
		}
	}
	result := func(worker uint64, shard int) {
		t.Helper()
		p, err := co.sim.RunShard(context.Background(), testOpts(nil), plan[shard].Lo, plan[shard].Hi)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := apply(command{Kind: cmdResult, Frame: encodeResult(worker, shard, p)}).(resultReply); !ok || !r.Accepted {
			t.Fatalf("worker %d result for shard %d not accepted", worker, shard)
		}
	}

	apply(command{Kind: cmdJoin}) // w1
	apply(command{Kind: cmdJoin}) // w2
	assign(1, AssignShard, 0)
	assign(2, AssignShard, 1)
	result(2, 1)
	clock.Advance(2 * time.Second)
	assign(2, AssignShard, 0) // reaps w1; w2 inherits shard 0
	assign(1, AssignShard, 2) // zombie w1 returns and takes shard 2
	result(2, 0)
	clock.Advance(2 * time.Second)
	apply(command{Kind: cmdHeartbeat, Worker: 2}) // w1 silent again: reaped
	assign(2, AssignShard, 2)

	r := apply(command{Kind: cmdAssign, Worker: 3})
	if _, isErr := r.(error); !isErr {
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

// describeReply normalizes an Apply reply for cross-replica comparison:
// errors compare by message, everything else by value.
func describeReply(r any) any {
	if err, ok := r.(error); ok {
		return "error: " + err.Error()
	}
	return r
}

// TestLedgerFSMRetransmitAcknowledgedOnce covers the lost-reply window: a
// worker whose accepted result got no answer (leader died post-commit)
// re-uploads the identical frame; the ledger must acknowledge without
// double-counting, and a re-asked assign must re-offer the shard a worker is
// already running rather than dispatching a second copy.
func TestLedgerFSMRetransmitAcknowledgedOnce(t *testing.T) {
	cfg := Config{
		Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 2,
		livenessTimeout: time.Hour,
	}.withDefaults()
	co, err := newCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := co.Plan()
	f := newLedgerFSM(cfg, plan, nil)
	at := time.Unix(50, 0).UnixNano()

	f.Apply(1, encodeCommand(&command{Kind: cmdJoin, At: at}))
	first := f.Apply(2, encodeCommand(&command{Kind: cmdAssign, Worker: 1, At: at})).(AssignReply)
	if first.Status != AssignShard {
		t.Fatalf("assign = %+v, want a shard", first)
	}
	// Lost assign reply: the worker re-asks and must get the SAME shard back,
	// with no extra dispatch on the books.
	again := f.Apply(3, encodeCommand(&command{Kind: cmdAssign, Worker: 1, At: at})).(AssignReply)
	if again.Status != AssignShard || again.Shard != first.Shard {
		t.Fatalf("re-ask = %+v, want shard %d again", again, first.Shard)
	}
	if d := f.ledger().Dispatched[first.Shard]; d != 1 {
		t.Fatalf("re-offered shard dispatched %d times, want 1", d)
	}

	p, err := co.sim.RunShard(context.Background(), testOpts(nil), plan[first.Shard].Lo, plan[first.Shard].Hi)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeResult(1, first.Shard, p)
	r1 := f.Apply(4, encodeCommand(&command{Kind: cmdResult, Worker: 1, At: at, Frame: frame})).(resultReply)
	if !r1.Accepted {
		t.Fatal("first upload rejected")
	}
	// Lost result reply: the retransmit is acknowledged but changes nothing.
	r2 := f.Apply(5, encodeCommand(&command{Kind: cmdResult, Worker: 1, At: at, Frame: frame})).(resultReply)
	if r2.Accepted {
		t.Fatal("retransmitted result accepted twice")
	}
	l := f.ledger()
	if l.Dispatched[first.Shard] != 1 || l.Returned[first.Shard] != 1 || l.Accepted[first.Shard] != 1 {
		t.Fatalf("retransmit leaked into the ledger: d=%d r=%d a=%d, want 1/1/1",
			l.Dispatched[first.Shard], l.Returned[first.Shard], l.Accepted[first.Shard])
	}
}
