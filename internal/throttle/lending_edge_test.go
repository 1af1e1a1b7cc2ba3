package throttle

import "testing"

// Edge cases of the Appendix B lending model: zero-cap tenants on both
// sides of a loan, revocation at the period boundary, and the clamp that
// keeps a lender's effective cap from going below its own demand.

// TestLendingZeroCapBorrower: a VD with zero nominal caps can still borrow
// the group's headroom — and without lending it is throttled every second it
// offers load.
func TestLendingZeroCapBorrower(t *testing.T) {
	caps := []Caps{{}, {Tput: 1000, IOPS: 100}}
	demand := [][]Demand{
		flatDemand(20, Demand{WriteBps: 200, WriteIOPS: 2}),
		flatDemand(20, Demand{}),
	}
	without := new(Scratch).Simulate(caps, demand)
	if without.ThrottledSecs[0] != 20 {
		t.Fatalf("zero-cap VD throttled %d/20 secs without lending", without.ThrottledSecs[0])
	}
	with, msgs := replay(caps, demand, Replay{Lend: &Lending{Rate: 0.5, PeriodSec: 10}, Audit: true})
	if len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
	// 0.5 x AR = 400 B/s and 49 IOPS borrowed, both above the offered load.
	if with.ThrottledSecs[0] != 0 {
		t.Errorf("zero-cap VD still throttled %d secs after borrowing", with.ThrottledSecs[0])
	}
	if with.ThrottledSecs[1] != 0 {
		t.Errorf("idle lender throttled %d secs", with.ThrottledSecs[1])
	}
}

// TestLendingZeroCapLenderHasNothingToGive: when the only peer has zero
// caps, no headroom exists, so lending must change nothing — and must not
// drive any effective cap negative.
func TestLendingZeroCapLenderHasNothingToGive(t *testing.T) {
	caps := []Caps{{Tput: 1000, IOPS: 10}, {}}
	demand := [][]Demand{
		flatDemand(15, Demand{WriteBps: 100, WriteIOPS: 50}),
		flatDemand(15, Demand{}),
	}
	without := new(Scratch).Simulate(caps, demand)
	with, msgs := replay(caps, demand, Replay{Lend: &Lending{Rate: 0.8, PeriodSec: 5}, Audit: true})
	if len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
	if with.TotalThrottledSecs != without.TotalThrottledSecs {
		t.Errorf("lending with no lendable headroom changed throttling: %d != %d",
			with.TotalThrottledSecs, without.TotalThrottledSecs)
	}
	for vd := range caps {
		if with.ThrottledSecs[vd] != without.ThrottledSecs[vd] {
			t.Errorf("vd %d: throttled secs %d != %d", vd, with.ThrottledSecs[vd], without.ThrottledSecs[vd])
		}
	}
}

// TestLendingRevokedAtPeriodBoundary: a loan lives only until the next
// period boundary ("Init {Cap_i}" in Algorithm 2). The borrower sails
// through the first period on borrowed cap, then the reset returns the
// group to nominal just as the lender's own demand arrives, and the
// borrower is throttled for the whole second period.
func TestLendingRevokedAtPeriodBoundary(t *testing.T) {
	const period = 5
	caps := []Caps{{Tput: 100, IOPS: 1000}, {Tput: 1000, IOPS: 1000}}
	demand := [][]Demand{
		flatDemand(2*period, Demand{WriteBps: 200, WriteIOPS: 1}),
		append(flatDemand(period, Demand{}), flatDemand(period, Demand{WriteBps: 1000, WriteIOPS: 1})...),
	}
	res, msgs := replay(caps, demand, Replay{Lend: &Lending{Rate: 0.5, PeriodSec: period}, Audit: true})
	if len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
	// Period 1: borrowed 0.5 x (1100-200) = 450 B/s on top of the 100 cap.
	// Period 2: reset to nominal, no available resource left to borrow.
	if res.ThrottledSecs[0] != period {
		t.Fatalf("borrower throttled %d secs, want exactly the %d post-revocation secs", res.ThrottledSecs[0], period)
	}
	for _, ev := range res.Events {
		if ev.VD == 0 && ev.Sec < period {
			t.Fatalf("borrower throttled at sec %d despite holding the loan", ev.Sec)
		}
	}
	// The revocation must make the lender whole: its full-cap demand in
	// period 2 flows un-throttled.
	if res.ThrottledSecs[1] != 0 {
		t.Errorf("lender throttled %d secs after the loan was revoked", res.ThrottledSecs[1])
	}
}

// TestLendingClampsAtLenderCapBoundary: when p x AR exceeds the lenders'
// headroom, the loan is clamped so no lender's effective cap drops below its
// current demand. The scenario throttles the borrower in the IOPS dimension
// while the throughput dimension has far more available resource than the
// single lender can cover.
func TestLendingClampsAtLenderCapBoundary(t *testing.T) {
	caps := []Caps{{Tput: 10000, IOPS: 10}, {Tput: 100, IOPS: 1000}}
	demand := [][]Demand{
		flatDemand(10, Demand{WriteBps: 50, WriteIOPS: 50}),
		flatDemand(10, Demand{WriteBps: 50}),
	}
	res, msgs := replay(caps, demand, Replay{Lend: &Lending{Rate: 0.5, PeriodSec: 10}, Audit: true})
	// The audit is the assertion: an unclamped transfer would send the
	// lender's throughput cap negative and blow the summed-budget law.
	if len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
	if res.ThrottledSecs[0] != 0 {
		t.Errorf("borrower throttled %d secs despite ample IOPS headroom", res.ThrottledSecs[0])
	}
	if res.ThrottledSecs[1] != 0 {
		t.Errorf("lender throttled %d secs; the clamp should stop at its demand", res.ThrottledSecs[1])
	}
}

// TestLendingIdleLenderKeepsNonNegativeCap: a loan that takes an idle
// lender's whole headroom must leave its cap at exactly zero. With a
// 0.1 B/s throughput cap, the share 0.1*0.1/0.1 rounds above 0.1, and an
// unclamped debit left the cap at -1.4e-17: the audit's negative-cap law
// caught the same round-off in Fig 3(f,g)'s lending replays.
func TestLendingIdleLenderKeepsNonNegativeCap(t *testing.T) {
	caps := []Caps{{Tput: 10000, IOPS: 10}, {Tput: 0.1, IOPS: 1000}}
	demand := [][]Demand{
		flatDemand(10, Demand{WriteBps: 50, WriteIOPS: 50}),
		flatDemand(10, Demand{}),
	}
	res, msgs := replay(caps, demand, Replay{Lend: &Lending{Rate: 0.5, PeriodSec: 10}, Audit: true})
	if len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
	if res.ThrottledSecs[0] != 0 {
		t.Errorf("borrower throttled %d secs despite ample IOPS headroom", res.ThrottledSecs[0])
	}
}
