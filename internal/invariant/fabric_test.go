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
