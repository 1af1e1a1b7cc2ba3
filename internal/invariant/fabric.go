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

// LeaderTransition records one leadership establishment in the fabric's
// replicated control plane: replica Leader won (or bootstrapped) the
// election for Term. The coordinator replica set appends one entry per
// local election win, so the slice is the run's leadership history.
type LeaderTransition struct {
	Term   uint64
	Leader int
}

// CheckLeadershipContinuity is the control-plane election-safety law over a
// run's leadership history: some leader must have been established, terms
// must start at >= 1 and strictly increase (Raft's at-most-one-leader-per-
// term guarantee, observed end to end), and every leader must name a real
// replica.
func CheckLeadershipContinuity(rep *Report, replicas int, history []LeaderTransition) {
	const law = "consensus/leadership"
	if len(history) == 0 {
		rep.Addf(law, "no leader was ever established")
		return
	}
	var prev uint64
	for i, tr := range history {
		if tr.Term < 1 {
			rep.Addf(law, "transition %d has term %d, want >= 1", i, tr.Term)
		}
		if tr.Term <= prev {
			rep.Addf(law, "transition %d: term %d does not increase past %d (two leaders in one term?)",
				i, tr.Term, prev)
		}
		prev = tr.Term
		if tr.Leader < 0 || tr.Leader >= replicas {
			rep.Addf(law, "transition %d names leader %d outside the %d-replica set", i, tr.Leader, replicas)
		}
	}
}
