package invariant

// ShardLedger is the fabric coordinator's dispatch/result accounting for one
// distributed run, expressed in plain integers so the law has no dependency
// on the fabric package (and the fabric can depend on invariant). Index i
// describes shard i of the plan.
type ShardLedger struct {
	// Dispatched counts how many times shard i was handed to a worker
	// (> 1 means speculation or dead-worker reassignment).
	Dispatched []int
	// Accepted counts how many of shard i's returned results were folded
	// into the merge. At-most-once accounting requires exactly one.
	Accepted []int
	// Returned counts how many results for shard i came back at all;
	// Returned - Accepted results were dropped as duplicates.
	Returned []int
}

// CheckFabricAccounting is the cross-process conservation law of the
// distributed fabric: every shard of the plan was dispatched at least once,
// exactly one result per shard was accepted into the merge (at-most-once),
// nothing was accepted that was never dispatched or never returned, and a
// shard's dispatch count bounds its returned results (a worker cannot return
// a shard it was never assigned).
func CheckFabricAccounting(rep *Report, l *ShardLedger) {
	const law = "fabric/accounting"
	if len(l.Accepted) != len(l.Dispatched) || len(l.Returned) != len(l.Dispatched) {
		rep.Addf(law, "ledger shape mismatch: %d dispatched / %d returned / %d accepted slots",
			len(l.Dispatched), len(l.Returned), len(l.Accepted))
		return
	}
	for i := range l.Dispatched {
		d, r, a := l.Dispatched[i], l.Returned[i], l.Accepted[i]
		if d < 1 {
			rep.Addf(law, "shard %d was never dispatched", i)
		}
		if a != 1 {
			rep.Addf(law, "shard %d accepted %d results, want exactly 1", i, a)
		}
		if a > r {
			rep.Addf(law, "shard %d accepted %d results but only %d returned", i, a, r)
		}
		if r > d {
			rep.Addf(law, "shard %d returned %d results from %d dispatches", i, r, d)
		}
	}
}
