package invariant

import (
	"strings"
	"testing"
)

// TestCheckFabricAccounting exercises the cross-process conservation law
// over healthy and broken ledgers.
func TestCheckFabricAccounting(t *testing.T) {
	ok := &ShardLedger{
		Dispatched: []int{1, 2, 1}, // shard 1 was speculated
		Returned:   []int{1, 2, 1},
		Accepted:   []int{1, 1, 1}, // the duplicate was dropped
	}
	var rep Report
	CheckFabricAccounting(&rep, ok)
	if !rep.OK() {
		t.Fatalf("healthy ledger violated: %s", rep.String())
	}

	cases := []struct {
		name string
		l    *ShardLedger
		want string
	}{
		{"never dispatched", &ShardLedger{Dispatched: []int{0}, Returned: []int{0}, Accepted: []int{1}}, "never dispatched"},
		{"double accept", &ShardLedger{Dispatched: []int{2}, Returned: []int{2}, Accepted: []int{2}}, "want exactly 1"},
		{"lost shard", &ShardLedger{Dispatched: []int{1}, Returned: []int{1}, Accepted: []int{0}}, "accepted 0"},
		{"accept from thin air", &ShardLedger{Dispatched: []int{1}, Returned: []int{0}, Accepted: []int{1}}, "only 0 returned"},
		{"return without dispatch", &ShardLedger{Dispatched: []int{1}, Returned: []int{2}, Accepted: []int{1}}, "from 1 dispatches"},
		{"shape mismatch", &ShardLedger{Dispatched: []int{1, 1}, Returned: []int{1}, Accepted: []int{1}}, "shape mismatch"},
	}
	for _, tc := range cases {
		var rep Report
		CheckFabricAccounting(&rep, tc.l)
		if rep.OK() {
			t.Fatalf("%s: ledger passed", tc.name)
		}
		if !strings.Contains(rep.String(), tc.want) {
			t.Fatalf("%s: report %q lacks %q", tc.name, rep.String(), tc.want)
		}
	}
}

// TestCheckLeadershipContinuity exercises the control-plane election-safety
// law over healthy and broken leadership histories.
func TestCheckLeadershipContinuity(t *testing.T) {
	var rep Report
	CheckLeadershipContinuity(&rep, 3, []LeaderTransition{{Term: 1, Leader: 0}, {Term: 2, Leader: 1}})
	if !rep.OK() {
		t.Fatalf("healthy history violated: %s", rep.String())
	}

	cases := []struct {
		name    string
		history []LeaderTransition
		want    string
	}{
		{"empty history", nil, "no leader was ever established"},
		{"zero term", []LeaderTransition{{Term: 0, Leader: 0}}, "want >= 1"},
		{"repeated term", []LeaderTransition{{Term: 1, Leader: 0}, {Term: 1, Leader: 2}}, "does not increase"},
		{"regressing term", []LeaderTransition{{Term: 3, Leader: 0}, {Term: 2, Leader: 1}}, "does not increase"},
		{"phantom replica", []LeaderTransition{{Term: 1, Leader: 5}}, "outside the 3-replica set"},
		{"negative replica", []LeaderTransition{{Term: 1, Leader: -1}}, "outside the 3-replica set"},
	}
	for _, tc := range cases {
		var rep Report
		CheckLeadershipContinuity(&rep, 3, tc.history)
		if rep.OK() {
			t.Fatalf("%s: history passed", tc.name)
		}
		if !strings.Contains(rep.String(), tc.want) {
			t.Fatalf("%s: report %q lacks %q", tc.name, rep.String(), tc.want)
		}
	}
}
