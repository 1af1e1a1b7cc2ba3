package ebs

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"

	"ebslab/internal/control"
)

// warmAllocs returns the allocations of one call to run once the pools
// (tracers, batches, RNG sources, scratch) are warm: the first calls pay the
// one-time slab and batch allocations that steady state reuses. Automatic GC
// is off meanwhile: a collection empties the pools, and the run after it
// would count their refill.
func warmAllocs(run func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		run()
	}
	return testing.AllocsPerRun(5, run)
}

// TestRunSteadyStateAllocs pins the hot path's allocation budget: a warm run
// allocates the dataset assembly itself (record/row slices, regrown
// O(log IOs) times) plus a fixed per-worker overhead, with ZERO allocations
// per disk or per simulated IO. A regression here means per-record churn
// crept back into the inner loop; see DESIGN.md's "Hot path & memory layout".
// Each budget is the count measured on a 10- and a 40-disk run plus at most
// 15 %: workers=1 measured 30–35, workers=2 40, workers=4 49–57 (the merge's
// rows task is one of them: finish hands it over as a method value).
func TestRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pool reuse is randomized under the race detector")
	}
	sim := New(smallFleet(t))
	for _, tc := range []struct {
		workers int
		budget  float64
	}{
		{1, 40},
		{2, 44},
		{4, 65},
	} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			allocs := func(maxVDs int) float64 {
				opts := Options{DurationSec: 8, TraceSampleEvery: 1, EventSampleEvery: 8, MaxVDs: maxVDs, Workers: tc.workers}
				return warmAllocs(func() {
					ds, err := sim.Run(context.Background(), opts)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if len(ds.Trace) == 0 {
						t.Fatal("no trace records")
					}
				})
			}
			few, many := allocs(10), allocs(40)
			if few > tc.budget || many > tc.budget {
				t.Errorf("warm Run allocates %.0f times over 10 disks, %.0f over 40; budget is %.0f", few, many, tc.budget)
			}
			// One allocation per disk would add 30.
			if many > few+10 {
				t.Errorf("Run allocates per disk: %.0f times over 10 disks, %.0f over 40", few, many)
			}
		})
	}
}

// TestControlledSteadyStateAllocs bounds the control plane's fixed cost on a
// warm simulator: RunControlled allocates its observation, plan and
// per-epoch state on top of the run, nothing per disk and nothing per IO —
// 10 disks at 1/16 event sampling and 100 disks at 1/4 (about 36x the IOs)
// allocate alike. Each budget is the count measured plus at most 15 %: noop
// measured 639–649, reactive 1,325–1,342.
func TestControlledSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pool reuse is randomized under the race detector")
	}
	sim := New(smallFleet(t))
	for _, tc := range []struct {
		policy string
		budget float64
	}{
		{"noop", 745},
		{"reactive", 1540},
	} {
		t.Run("policy="+tc.policy, func(t *testing.T) {
			pol, err := control.ByName(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(sampleEvery, maxVDs int) float64 {
				opts := Options{DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: sampleEvery, MaxVDs: maxVDs, Workers: 2}
				return warmAllocs(func() {
					if _, _, err := sim.RunControlled(context.Background(), opts, pol, control.Config{EpochSec: 2}); err != nil {
						t.Fatalf("RunControlled: %v", err)
					}
				})
			}
			small, large := allocs(16, 10), allocs(4, 100)
			t.Logf("warm RunControlled allocates %.0f times over 10 disks, %.0f over 100", small, large)
			if small > tc.budget || large > tc.budget {
				t.Errorf("warm RunControlled allocates %.0f times over 10 disks, %.0f over 100; budget is %.0f", small, large, tc.budget)
			}
			// One allocation per disk would add 90.
			if large > small+30 {
				t.Errorf("RunControlled allocates per disk or per IO: %.0f times over 10 disks, %.0f over 100", small, large)
			}
		})
	}
}
