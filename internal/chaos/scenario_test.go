// Scenario regression tests: one fixed (seed, plan) pair is pinned to a
// golden fixture — schedule fingerprint, chaos and fault-free dataset
// fingerprints, and fault accounting. Regenerate after an intentional change
// with
//
//	go test ./internal/chaos -run TestGoldenChaosScenario -update
package chaos_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden scenario fixture")

const scenarioSeed = 7

func scenarioFleet(t testing.TB) *workload.Fleet {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = scenarioSeed
	cfg.NodesPerDC = 6
	cfg.DCs = 2
	cfg.BSPerDC = 3
	cfg.BSPerCluster = 3
	cfg.Users = 10
	cfg.DurationSec = 20
	f, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return f
}

func scenarioOpts(workers int) ebs.Options {
	return ebs.Options{
		Seed: scenarioSeed, DurationSec: 12, TraceSampleEvery: 1,
		EventSampleEvery: 4, Workers: workers,
	}
}

// disruptivePlan touches the dataset (penalty + storms) on purpose. Eight
// crash windows over six BSs make it overwhelmingly likely the skewed
// fleet's hot BSs spend time down, so FaultedIOs is non-trivial.
func disruptivePlan() *chaos.Plan {
	return &chaos.Plan{
		BSCrashes: 8, MeanDownSec: 4, FailoverPenaltyUS: 250,
		Storms: 8, StormFactor: 4, MeanStormSec: 4,
	}
}

// neutralPlan observes the same crash windows without any dataset-visible
// knob.
func neutralPlan() *chaos.Plan {
	return &chaos.Plan{BSCrashes: 8, MeanDownSec: 4}
}

func runScenario(t testing.TB, f *workload.Fleet, plan *chaos.Plan, workers int) (string, chaos.Stats) {
	t.Helper()
	opts := scenarioOpts(workers)
	var st chaos.Stats
	opts.Chaos = plan
	opts.ChaosStats = &st
	ds, err := ebs.New(f).Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	return invariant.Fingerprint(ds), st
}

type scenarioGolden struct {
	ScheduleFP string
	DatasetFP  string
	BaselineFP string
	Stats      chaos.Stats
}

func goldenPath() string {
	return filepath.Join("testdata", "golden", "scenario.json")
}

// TestGoldenChaosScenario pins the full chain for one fixed (seed, plan):
// the expanded schedule, the disruptive run's dataset fingerprint and fault
// accounting, and the fault-free baseline fingerprint.
func TestGoldenChaosScenario(t *testing.T) {
	f := scenarioFleet(t)
	plan := disruptivePlan()
	shape := chaos.Shape{
		BSs: f.Topology.StorageNodes, VDs: len(f.Topology.VDs), DurSec: 12,
	}
	sched := plan.Expand(scenarioSeed, shape)

	got := scenarioGolden{ScheduleFP: sched.Fingerprint()}
	got.DatasetFP, got.Stats = runScenario(t, f, plan, 2)

	baseline, err := ebs.New(f).Run(context.Background(), scenarioOpts(2))
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	got.BaselineFP = invariant.Fingerprint(baseline)
	if got.DatasetFP == got.BaselineFP {
		t.Fatal("disruptive plan left the dataset untouched; the scenario pins nothing")
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden scenario fixture updated: %s", goldenPath())
		return
	}
	blob, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to create): %v", err)
	}
	var want scenarioGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("golden fixture corrupt: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos scenario drifted from the golden fixture.\n got: %+v\nwant: %+v\n(after an intentional change: go test ./internal/chaos -run TestGoldenChaosScenario -update)", got, want)
	}
}

// TestChaosWorkerCountInvariance: the same (seed, plan) must produce a
// byte-identical dataset and identical fault accounting at 1 and 4 workers.
func TestChaosWorkerCountInvariance(t *testing.T) {
	f := scenarioFleet(t)
	plan := disruptivePlan()
	fp1, st1 := runScenario(t, f, plan, 1)
	fp4, st4 := runScenario(t, f, plan, 4)
	if fp1 != fp4 {
		t.Fatalf("dataset fingerprint differs across worker counts: %s vs %s", fp1[:12], fp4[:12])
	}
	if st1 != st4 {
		t.Fatalf("fault accounting differs across worker counts: %+v vs %+v", st1, st4)
	}
}

// TestNeutralPlanReproducesFaultFreeFingerprint is the acceptance property:
// a fully recovered, penalty-free, storm-free schedule leaves the dataset
// fingerprint bit-identical to a fault-free run at the same seed.
func TestNeutralPlanReproducesFaultFreeFingerprint(t *testing.T) {
	f := scenarioFleet(t)
	plan := neutralPlan()
	shape := chaos.Shape{
		BSs: f.Topology.StorageNodes, VDs: len(f.Topology.VDs), DurSec: 12,
	}
	sched := plan.Expand(scenarioSeed, shape)
	if !sched.DatasetNeutral() {
		t.Fatalf("plan expanded to a non-neutral schedule: %s", sched)
	}
	if len(sched.Crashes) == 0 {
		t.Fatal("neutral plan scheduled no crash windows; nothing is exercised")
	}

	chaosFP, st := runScenario(t, f, plan, 2)
	if st.FaultedIOs == 0 {
		t.Fatal("no IO ever hit a crashed BS; the neutrality claim is vacuous")
	}
	baseline, err := ebs.New(f).Run(context.Background(), scenarioOpts(2))
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	baselineFP := invariant.Fingerprint(baseline)
	if chaosFP != baselineFP {
		t.Fatalf("neutral schedule perturbed the dataset: %s != %s", chaosFP[:12], baselineFP[:12])
	}
	var rep invariant.Report
	invariant.CheckChaosNeutrality(&rep, sched, chaosFP, baselineFP)
	if err := rep.Err(); err != nil {
		t.Fatalf("CheckChaosNeutrality: %v", err)
	}
}
