// The golden bake-off pins one fixed (fleet, seed, chaos plan) scenario:
// four policies through the full predict→act loop, metrics and fingerprints
// frozen in testdata/golden/controleval.json. Regenerate after an
// intentional change with
//
//	go test ./internal/control/ctleval -run TestGoldenControlEval -update
package ctleval_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/control"
	"ebslab/internal/control/ctleval"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden control-eval fixture")

const evalSeed = 2

// evalSpec is the pinned scenario: a one-DC fleet with twelve BlockServers
// under a chaos plan whose storm windows span ~4 epochs and straddle epoch
// boundaries — each onset shows the controller a partial-coverage epoch
// before the full-boost epochs, and that ramp is exactly what a
// momentum-carrying forecaster can act on one epoch before a last-value
// policy does. Crash windows (~3 epochs) exercise the evacuation path and
// the failover penalty accounting at the same time.
func evalSpec() ctleval.Spec {
	cfg := workload.DefaultConfig()
	cfg.Seed = evalSeed
	cfg.DCs = 1
	cfg.NodesPerDC = 4
	cfg.BSPerDC = 12
	cfg.BSPerCluster = 6
	cfg.Users = 16
	cfg.DurationSec = 240
	return ctleval.Spec{
		Fleet: cfg,
		Opts: ebs.Options{
			Seed: evalSeed, DurationSec: 240,
			TraceSampleEvery: 1, EventSampleEvery: 8, Workers: 2,
			Chaos: &chaos.Plan{
				Seed: evalSeed, BSCrashes: 2, MeanDownSec: 30,
				FailoverPenaltyUS: 1500,
				Storms:            12, StormFactor: 8, MeanStormSec: 40,
			},
		},
		Control: control.Config{EpochSec: 10},
	}
}

func runEval(t *testing.T) *ctleval.Report {
	t.Helper()
	rep, err := ctleval.Run(context.Background(), evalSpec())
	if err != nil {
		t.Fatalf("ctleval.Run: %v", err)
	}
	return rep
}

func TestGoldenControlEval(t *testing.T) {
	rep := runEval(t)
	t.Logf("bake-off:\n%s", rep)

	path := filepath.Join("testdata", "golden", "controleval.json")
	if *update {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatalf("write fixture: %v", err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create): %v", err)
	}
	var want ctleval.Report
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("unmarshal fixture: %v", err)
	}
	// Round-trip the live report through JSON so both sides compare in
	// encoding/json's value domain (float64 round-trips exactly).
	live, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal live: %v", err)
	}
	var got ctleval.Report
	if err := json.Unmarshal(live, &got); err != nil {
		t.Fatalf("unmarshal live: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report drifted from golden fixture; inspect and rerun with -update\ngot:\n%s", rep)
	}
}

// The headline acceptance claim: under a chaos plan whose storms ramp
// across epoch boundaries, the predictive policy beats the reactive policy
// on mean imbalance, and every mitigation policy beats leaving the fleet
// alone.
func TestPredictiveBeatsReactive(t *testing.T) {
	rep := runEval(t)
	noop, re, pred := rep.Find("noop"), rep.Find("reactive"), rep.Find("predictive-holt")
	if noop == nil || re == nil || pred == nil {
		t.Fatalf("bake-off missing a policy: %+v", rep.Outcomes)
	}
	if pred.MeanCoV >= re.MeanCoV {
		t.Errorf("predictive MeanCoV %.4f, want < reactive %.4f\n%s", pred.MeanCoV, re.MeanCoV, rep)
	}
	if re.MeanCoV >= noop.MeanCoV {
		t.Errorf("reactive MeanCoV %.4f, want < uncontrolled %.4f\n%s", re.MeanCoV, noop.MeanCoV, rep)
	}
	if noop.Decisions != 0 {
		t.Errorf("noop made %d decisions, want 0", noop.Decisions)
	}
}

// Metamorphic law 1: the no-op policy's actuated dataset is byte-identical
// to an uncontrolled run of the same options — observing and planning must
// not perturb the simulation.
func TestNoopMatchesUncontrolled(t *testing.T) {
	spec := evalSpec()
	spec.Policies = []string{"noop"}
	rep, err := ctleval.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("ctleval.Run: %v", err)
	}
	fleet, err := workload.Generate(spec.Fleet)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ds, err := ebs.New(fleet).Run(context.Background(), spec.Opts)
	if err != nil {
		t.Fatalf("uncontrolled Run: %v", err)
	}
	if got, want := rep.Outcomes[0].DatasetFP, invariant.Fingerprint(ds); got != want {
		t.Fatalf("noop dataset fingerprint %s, uncontrolled run %s", got, want)
	}
}

// Metamorphic law 2: the decision log and the actuated dataset are
// worker-count invariant — the control loop is sequential and the engine
// merge is commutative, so parallelism must not leak into either.
func TestControlWorkerInvariance(t *testing.T) {
	base := evalSpec()
	base.Policies = []string{"predictive-holt"}
	var fps [2]ctleval.Outcome
	for i, workers := range []int{1, 3} {
		spec := base
		spec.Opts.Workers = workers
		rep, err := ctleval.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fps[i] = rep.Outcomes[0]
	}
	if fps[0].LogFP != fps[1].LogFP {
		t.Errorf("decision log fingerprint differs across worker counts: %s vs %s", fps[0].LogFP, fps[1].LogFP)
	}
	if fps[0].DatasetFP != fps[1].DatasetFP {
		t.Errorf("dataset fingerprint differs across worker counts: %s vs %s", fps[0].DatasetFP, fps[1].DatasetFP)
	}
}

// TestScenarioArm runs a compact bake-off over a scenario-reshaped fleet:
// the harness must bind the spec string itself, the reshaped traffic must
// actually change the noop dataset, and a malformed spec string must be
// rejected before any policy runs.
func TestScenarioArm(t *testing.T) {
	small := evalSpec()
	small.Fleet.DurationSec = 24
	small.Opts.DurationSec = 24
	small.Opts.Chaos = nil
	small.Control = control.Config{EpochSec: 3}
	small.Policies = []string{"noop", "predictive"}

	base, err := ctleval.Run(context.Background(), small)
	if err != nil {
		t.Fatalf("Run(no scenario): %v", err)
	}
	shaped := small
	// lo must undercut this small fleet's demand (a fraction of the caps)
	// for the elastic clip to bite; see the scenario package tests.
	shaped.Scenario = "elastic,hi=2,lo=0.0001,step=3"
	rep, err := ctleval.Run(context.Background(), shaped)
	if err != nil {
		t.Fatalf("Run(elastic scenario): %v", err)
	}
	if len(rep.Outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(rep.Outcomes))
	}
	if rep.Outcomes[0].DatasetFP == base.Outcomes[0].DatasetFP {
		t.Error("elastic scenario left the noop dataset unchanged")
	}

	bad := shaped
	bad.Scenario = "quakestorm"
	if _, err := ctleval.Run(context.Background(), bad); err == nil {
		t.Error("unknown scenario accepted")
	}
}
