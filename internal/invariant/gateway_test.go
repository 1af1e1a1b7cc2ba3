package invariant

import (
	"testing"

	"ebslab/internal/xrand"
)

func TestCheckGatewayAccounting(t *testing.T) {
	cases := []struct {
		name    string
		l       StudyLedger
		drained bool
		ok      bool
	}{
		{
			name: "clean drained session",
			l: StudyLedger{
				Submitted: 6, Rejected: 1, Deduped: 2,
				Granted: 5, Completed: 4, Failed: 0,
				CanceledQueued: 1, CanceledRunning: 1,
			},
			drained: true,
			ok:      true,
		},
		{
			name: "live session with work in flight",
			l: StudyLedger{
				Submitted: 4, Granted: 2,
				Completed: 1, Queued: 2, Running: 1,
			},
			ok: true,
		},
		{
			name:    "leaked job at drain",
			l:       StudyLedger{Submitted: 2, Granted: 1, Completed: 1, Queued: 1},
			drained: true,
		},
		{
			name: "state sum does not cover submissions",
			l:    StudyLedger{Submitted: 3, Granted: 1, Completed: 1},
		},
		{
			name: "grants unaccounted by run states",
			l:    StudyLedger{Submitted: 2, Granted: 2, Completed: 1, Queued: 1},
		},
		{
			name: "negative counter",
			l:    StudyLedger{Submitted: -1, Queued: -1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rep Report
			CheckGatewayAccounting(&rep, tc.name, &tc.l, tc.drained)
			if got := rep.OK(); got != tc.ok {
				t.Fatalf("OK() = %v, want %v; report:\n%s", got, tc.ok, rep.String())
			}
		})
	}
}

func TestCheckGrantPacing(t *testing.T) {
	var rep Report
	// rate 1/s, burst 2: two immediate grants then one per second is legal.
	CheckGrantPacing(&rep, "a", 1, 2, []float64{0, 0, 1, 2, 3})
	if !rep.OK() {
		t.Fatalf("legal pacing flagged:\n%s", rep.String())
	}
	// Three grants in the same instant exceed burst 2.
	var bad Report
	CheckGrantPacing(&bad, "b", 1, 2, []float64{5, 5, 5})
	if bad.OK() {
		t.Fatal("burst violation not flagged")
	}
	// Out-of-order log is itself a violation.
	var ooo Report
	CheckGrantPacing(&ooo, "c", 1, 2, []float64{2, 1})
	if ooo.OK() {
		t.Fatal("out-of-order grant log not flagged")
	}
}

// pacingSlack is the pairwise statement of the pacing law, kept as the
// reference CheckGrantPacing's one-pass bucket replay is held to: the least,
// over every closed interval [i, j] of the log, of the grants the cap allows
// there minus the grants it holds. The law holds when it is not negative.
func pacingSlack(rate, burst float64, atSec []float64) float64 {
	slack := burst
	for i := range atSec {
		for j := i; j < len(atSec); j++ {
			slack = min(slack, burst+rate*(atSec[j]-atSec[i])-float64(j-i+1))
		}
	}
	return slack
}

// TestCheckGrantPacingMatchesPairwise: over seeded random grant logs, legal
// and illegal, the bucket replay flags a log exactly when the pairwise law
// does. Logs whose slack lies within 1e-6 of zero are skipped: there the
// two forms may round differently, and eps decides, not the law.
func TestCheckGrantPacingMatchesPairwise(t *testing.T) {
	var legal, illegal int
	for seed := int64(1); seed <= 2000; seed++ {
		r := xrand.Get(seed)
		rate := 0.25 + 4*r.Float64()
		burst := float64(1 + r.Intn(3))
		if r.Intn(2) == 0 {
			burst += r.Float64()
		}
		atSec := make([]float64, 1+r.Intn(16))
		at := 10 * r.Float64()
		for k := range atSec {
			if r.Intn(3) > 0 { // a third of the grants share their predecessor's instant
				at += 2 * r.Float64() / rate
			}
			atSec[k] = at
		}
		r.Release()

		slack := pacingSlack(rate, burst, atSec)
		if slack > -1e-6 && slack < 1e-6 {
			continue
		}
		var rep Report
		CheckGrantPacing(&rep, "t", rate, burst, atSec)
		if want := slack >= 0; rep.OK() != want {
			t.Fatalf("seed %d: rate %v burst %v log %v: pairwise slack %v, replay OK() = %v",
				seed, rate, burst, atSec, slack, rep.OK())
		}
		if slack >= 0 {
			legal++
		} else {
			illegal++
		}
	}
	if legal < 200 || illegal < 200 {
		t.Fatalf("%d legal and %d illegal logs compared, want >= 200 of each", legal, illegal)
	}
}
