package core

import (
	"reflect"
	"testing"

	"ebslab/internal/workload"
)

// TestEnsureTotalsWorkerCountInvariance pins the aggregation pass's
// determinism contract: a Study with one worker and a Study with many must
// produce identical totals, down to float bit patterns.
func TestEnsureTotalsWorkerCountInvariance(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.DCs = 1
	cfg.NodesPerDC = 24
	cfg.DurationSec = 30
	mk := func(workers int) *Study {
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		return s
	}
	ref := mk(1).ensureTotals()
	if len(ref.vdRead) == 0 || len(ref.qpRead) == 0 || len(ref.vmRead) == 0 {
		t.Fatal("reference totals are empty")
	}
	for _, workers := range []int{2, 8} {
		got := mk(workers).ensureTotals()
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("totals differ between 1 and %d workers", workers)
		}
	}
}
