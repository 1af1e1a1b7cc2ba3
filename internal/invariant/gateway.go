package invariant

// StudyLedger is the gateway's per-job accounting for one serving session,
// expressed in plain integers so the law has no dependency on the gateway
// package (mirroring ShardLedger for the fabric). Every submission is
// counted exactly once at arrival (Submitted, Rejected, or Deduped), every
// accepted study occupies exactly one lifecycle state at any instant, and
// grants are the only door from queued to running.
type StudyLedger struct {
	// Submitted counts submissions accepted into a tenant queue.
	Submitted int
	// Rejected counts submissions refused at admission (tenant queue full).
	Rejected int
	// Deduped counts submissions answered from a completed study with the
	// same content address (no new job was created).
	Deduped int

	// Granted counts queued studies handed a run slot by the scheduler.
	Granted int

	// Completed, Failed counts studies that finished running.
	Completed int
	Failed    int
	// CanceledQueued and CanceledRunning split cancellations by the state
	// the study was in when the cancel landed.
	CanceledQueued  int
	CanceledRunning int

	// Queued and Running are the studies currently in each live state.
	Queued  int
	Running int
}

// CheckGatewayAccounting is the serving plane's conservation law: every
// accepted study is in exactly one state (queued, running, or terminal),
// grants account for every study that ever ran, and nothing leaks. With
// drained set (the gateway has shut down or gone idle), live states must be
// empty — a non-zero Queued or Running then is a leaked job. scope names
// the ledger in every message ("all tenants", "tenant alice").
func CheckGatewayAccounting(rep *Report, scope string, l *StudyLedger, drained bool) {
	const law = "gateway/accounting"
	for _, c := range []struct {
		name string
		v    int
	}{
		{"Submitted", l.Submitted}, {"Rejected", l.Rejected}, {"Deduped", l.Deduped},
		{"Granted", l.Granted}, {"Completed", l.Completed}, {"Failed", l.Failed},
		{"CanceledQueued", l.CanceledQueued}, {"CanceledRunning", l.CanceledRunning},
		{"Queued", l.Queued}, {"Running", l.Running},
	} {
		if c.v < 0 {
			rep.Addf(law, "%s: %s is %d, want >= 0", scope, c.name, c.v)
		}
	}
	// Every accepted study is queued, running, or terminal — exactly once.
	states := l.Queued + l.Running + l.Completed + l.Failed + l.CanceledQueued + l.CanceledRunning
	if states != l.Submitted {
		rep.Addf(law, "%s: states sum to %d but %d studies were submitted (leak or double-count)",
			scope, states, l.Submitted)
	}
	// Grants open every run: whatever is running or finished running was
	// granted, and every grant is accounted by exactly one of those states.
	ran := l.Running + l.Completed + l.Failed + l.CanceledRunning
	if l.Granted != ran {
		rep.Addf(law, "%s: %d grants but %d studies running or finished running", scope, l.Granted, ran)
	}
	if l.Granted > l.Submitted {
		rep.Addf(law, "%s: %d grants exceed %d submissions", scope, l.Granted, l.Submitted)
	}
	if drained {
		if l.Queued != 0 {
			rep.Addf(law, "%s: drained gateway still holds %d queued studies", scope, l.Queued)
		}
		if l.Running != 0 {
			rep.Addf(law, "%s: drained gateway still holds %d running studies", scope, l.Running)
		}
	}
}

// CheckGrantPacing is the token-bucket conservation law over one tenant's
// grant log: in every closed interval of the log, the number of grants can
// exceed the banked burst by at most rate * elapsed — i.e. the scheduler
// never granted faster than the tenant's cap refills. atSec is the grant
// times in seconds (any epoch), in grant order.
//
// It checks every interval in one pass by replaying the bucket: full at
// burst before the first grant, refilled by rate * elapsed up to burst, one
// token per grant. The level the replay finds at grant k is the minimum over
// i <= k of burst + rate*(atSec[k]-atSec[i]) - (k-i), so a grant that finds
// less than one token is exactly an interval holding too many grants.
func CheckGrantPacing(rep *Report, tenant string, rate, burst float64, atSec []float64) {
	const law = "gateway/pacing"
	const eps = 1e-9
	for i := 1; i < len(atSec); i++ {
		if atSec[i] < atSec[i-1] {
			rep.Addf(law, "tenant %s: grant %d at %.3fs precedes grant %d at %.3fs",
				tenant, i, atSec[i], i-1, atSec[i-1])
			return
		}
	}
	tokens := burst
	for k, at := range atSec {
		if k > 0 {
			tokens = min(burst, tokens+rate*(at-atSec[k-1]))
		}
		if tokens < 1-eps {
			rep.Addf(law, "tenant %s: grant %d at %.3fs found %.2f tokens in a bucket of %.2f refilling %.2f/s",
				tenant, k, at, tokens, burst, rate)
			return
		}
		tokens--
	}
}
