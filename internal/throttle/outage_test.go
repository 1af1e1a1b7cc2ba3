package throttle

import (
	"math"
	"reflect"
	"testing"
)

// outageCaps is the standard three-VD group for the outage tests: 100 B/s
// throughput each, IOPS caps high enough to never bind.
func outageCaps() []Caps {
	return []Caps{
		{Tput: 100, IOPS: 1000},
		{Tput: 100, IOPS: 1000},
		{Tput: 100, IOPS: 1000},
	}
}

// TestOutagesNilDownMatchesLending: a crash schedule under which nobody is
// ever down is plain lending, the same as no schedule at all.
func TestOutagesNilDownMatchesLending(t *testing.T) {
	caps := outageCaps()
	demand := [][]Demand{
		flatDemand(6, Demand{WriteBps: 200, WriteIOPS: 1}),
		flatDemand(6, Demand{}),
		flatDemand(6, Demand{}),
	}
	lend := Lending{Rate: 0.5, PeriodSec: 10}
	want, wantMsgs := replay(caps, demand, Replay{Lend: &lend, Audit: true})
	neverDown := func(t, vd int) bool { return false }
	got, gotMsgs := replay(caps, demand, Replay{Lend: &lend, Down: neverDown, Audit: true})
	if !reflect.DeepEqual(want, got) {
		t.Fatal("an all-healthy down schedule diverged from plain lending")
	}
	if len(wantMsgs) != 0 || len(gotMsgs) != 0 {
		t.Fatalf("audit violations: %v / %v", wantMsgs, gotMsgs)
	}
}

// TestDownVDCannotBorrow: a VD inside a crash window is unreachable, so its
// throttle must play out exactly as if lending did not exist.
func TestDownVDCannotBorrow(t *testing.T) {
	caps := outageCaps()
	demand := [][]Demand{
		flatDemand(3, Demand{WriteBps: 200, WriteIOPS: 1}),
		flatDemand(3, Demand{}),
		flatDemand(3, Demand{}),
	}
	lend := Lending{Rate: 0.5, PeriodSec: 10}
	down := func(t, vd int) bool { return vd == 0 }

	got, msgs := replay(caps, demand, Replay{Lend: &lend, Down: down, Audit: true})
	if len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
	if want := new(Scratch).Simulate(caps, demand); !reflect.DeepEqual(got, want) {
		t.Fatalf("down borrower diverged from the no-lending replay:\n got %+v\nwant %+v", got, want)
	}
	// Sanity: a healthy VD0 would have borrowed its way to more throughput.
	healthy := withLending(caps, demand, lend)
	if healthy.DeliveredBps[0] <= got.DeliveredBps[0] {
		t.Fatal("lending never helped the healthy run; the borrow bar is vacuous")
	}
}

// TestDownLenderExcluded: a crashed VD's headroom is an artifact, not spare
// capacity — the borrow must be capped by the *healthy* peers' headroom.
func TestDownLenderExcluded(t *testing.T) {
	caps := outageCaps()
	// VD0 over cap by 50; VD1 idle (headroom 100, but down); VD2 nearly
	// full (headroom 10). AR = 300-240 = 60, extra = 0.9*60 = 54, so with
	// VD1 lending VD0 would be unthrottled — with VD1 down the loan clips
	// at VD2's 10.
	demand := [][]Demand{
		flatDemand(1, Demand{WriteBps: 150, WriteIOPS: 1}),
		flatDemand(1, Demand{}),
		flatDemand(1, Demand{WriteBps: 90, WriteIOPS: 1}),
	}
	lend := Lending{Rate: 0.9, PeriodSec: 10}

	all := withLending(caps, demand, lend)
	if all.DeliveredBps[0] < 150-1e-6 {
		t.Fatalf("with every lender healthy VD0 should be unthrottled, delivered %v", all.DeliveredBps[0])
	}
	down := func(t, vd int) bool { return vd == 1 }
	got, msgs := replay(caps, demand, Replay{Lend: &lend, Down: down, Audit: true})
	if len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
	if want := 110.0; math.Abs(got.DeliveredBps[0]-want) > 1e-6 {
		t.Fatalf("VD0 delivered %v, want %v (nominal 100 + VD2's headroom 10)", got.DeliveredBps[0], want)
	}
}

// TestFlipRevokesLoans: a crash window opening mid-period snaps every
// effective cap back to nominal. The borrower re-borrows, but its big lender
// is now down, so the post-flip loan is visibly smaller.
func TestFlipRevokesLoans(t *testing.T) {
	caps := outageCaps()
	const dur = 4
	// VD0 over cap by 50; VD1 nearly full (headroom 5); VD2 idle (headroom
	// 100). Pre-flip extra = 0.9*55 = 49.5 — VD0 is essentially unthrottled.
	// At t=2 VD2 crashes: the loan is revoked and the re-borrow clips at
	// VD1's 5.
	demand := [][]Demand{
		flatDemand(dur, Demand{WriteBps: 150, WriteIOPS: 1}),
		flatDemand(dur, Demand{WriteBps: 95, WriteIOPS: 1}),
		flatDemand(dur, Demand{}),
	}
	lend := Lending{Rate: 0.9, PeriodSec: 100}
	down := func(t, vd int) bool { return vd == 2 && t >= 2 }

	got, msgs := replay(caps, demand, Replay{Lend: &lend, Down: down, Audit: true})
	if len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
	// Pre-flip seconds ride the big loan: nearly no queueing.
	if d := got.QueueDelaySec[0][1]; d > 0.05 {
		t.Fatalf("pre-flip queue delay %v; the big loan never landed", d)
	}
	// Post-flip the effective cap is ~105 against offer ~151: had the loan
	// survived the flip, the delay would have stayed near zero.
	if d := got.QueueDelaySec[0][2]; d < 0.3 {
		t.Fatalf("post-flip queue delay %v; the crash did not revoke the loan", d)
	}
	// And the run as a whole delivered less than an outage-free one.
	clean, _ := replay(caps, demand, Replay{Lend: &lend, Audit: true})
	if got.DeliveredBps[0] >= clean.DeliveredBps[0]-1 {
		t.Fatalf("revocation cost no throughput: %v vs %v", got.DeliveredBps[0], clean.DeliveredBps[0])
	}
}
