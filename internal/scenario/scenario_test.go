// Package scenario_test runs the scenario library end to end through the
// real engine: determinism oracles, golden fixtures, and the chaos/control
// composition acceptance runs all live here (the external test package is
// what lets these tests import ebs without an import cycle).
package scenario_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures under testdata/golden")

// scenarioFleet is the shared small fleet every scenario test binds to.
func scenarioFleet(t testing.TB) *workload.Fleet {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = 7
	cfg.DCs = 1
	cfg.NodesPerDC = 2
	cfg.BSPerDC = 6
	cfg.BSPerCluster = 3
	cfg.Users = 6
	cfg.DurationSec = 12
	f, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return f
}

func bindSpec(t testing.TB, f *workload.Fleet, spec string) scenario.Workload {
	t.Helper()
	built, err := scenario.Build(spec)
	if err != nil {
		t.Fatalf("Build(%q): %v", spec, err)
	}
	wl, err := built.Bind(f)
	if err != nil {
		t.Fatalf("Bind(%q): %v", spec, err)
	}
	return wl
}

// goldenSpecs is the full scenario matrix the golden fixture and the
// determinism oracle walk: every registered scenario, including both replay
// schemas via the committed sample traces.
var goldenSpecs = []struct{ label, spec string }{
	{"bufferbloat", "bufferbloat,period=8,duty=0.5"},
	{"batchburst", "batchburst,wave=6,width=2"},
	{"elastic", "elastic,hi=2,lo=0.5,step=3"},
	{"replay-msr", "replay,path=testdata/msr_sample.csv"},
	{"replay-tianchi", "replay,path=testdata/tianchi_sample.csv"},
}

func runSpec(t testing.TB, spec string, workers int) (*ebs.Options, string, *sketch.Set) {
	t.Helper()
	f := scenarioFleet(t)
	wl := bindSpec(t, f, spec)
	set := sketch.NewSet(sketch.Config{})
	opts := ebs.Options{
		DurationSec:      12,
		TraceSampleEvery: 1,
		EventSampleEvery: 2,
		MaxVDs:           12,
		Workers:          workers,
		Stream:           set,
		Scenario:         wl,
	}
	if es, ok := wl.(interface{ EventSampleEvery() int }); ok {
		opts.EventSampleEvery = es.EventSampleEvery()
	}
	ds, err := ebs.New(f).Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("Run(%q): %v", spec, err)
	}
	if len(ds.Trace) == 0 {
		t.Fatalf("Run(%q): empty trace", spec)
	}
	return &opts, invariant.Fingerprint(ds), set
}

// TestWorkerCountInvariance is the determinism oracle from the scenario
// contract: every scenario's dataset fingerprint must be identical at any
// worker count, because all per-VD randomness is derived from
// (seed, scenario tag, VD) and never from scheduling order.
func TestWorkerCountInvariance(t *testing.T) {
	for _, tc := range goldenSpecs {
		t.Run(tc.label, func(t *testing.T) {
			_, fp1, sk1 := runSpec(t, tc.spec, 1)
			_, fp4, sk4 := runSpec(t, tc.spec, 4)
			if fp1 != fp4 {
				t.Errorf("dataset fingerprint differs across worker counts:\n  1 worker  %s\n  4 workers %s", fp1, fp4)
			}
			if sk1.Fingerprint() != sk4.Fingerprint() {
				t.Errorf("sketch fingerprint differs across worker counts")
			}
		})
	}
}

// goldenEntry pins one scenario's headline numbers. Floats are rendered
// through JSON with full precision: any drift at all is a contract change.
type goldenEntry struct {
	Spec      string // canonical spec string
	DatasetFP string
	IOs       int
	CCR1      float64
	NormCoV   float64
	LatP99    float64
}

// TestGoldenScenarios pins each scenario's dataset fingerprint and headline
// sketch statistics to testdata/golden/scenarios.json. Regenerate with
// `go test ./internal/scenario -run TestGolden -update` after an intentional
// change and commit the diff alongside it.
func TestGoldenScenarios(t *testing.T) {
	got := map[string]goldenEntry{}
	for _, tc := range goldenSpecs {
		f := scenarioFleet(t)
		wl := bindSpec(t, f, tc.spec)
		_, fp, set := runSpec(t, tc.spec, 2)
		sk := set.Skewness()
		got[tc.label] = goldenEntry{
			Spec:      wl.Spec(),
			DatasetFP: fp,
			IOs:       int(sk.IOs),
			CCR1:      sk.CCR1,
			NormCoV:   sk.NormCoV,
			LatP99:    sk.LatencyP99,
		}
	}
	path := filepath.Join("testdata", "golden", "scenarios.json")
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if *updateGolden {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no fixture %s (run with -update to create): %v", path, err)
	}
	if string(want) != string(blob) {
		t.Errorf("scenario goldens drifted from %s; rerun with -update if intended\n got: %s\nwant: %s", path, blob, want)
	}
}

// TestScenarioChaosControlAcceptance is the issue's composition acceptance:
// a scenario run end to end under a chaos plan AND under the predictive
// control policy, with the invariant suite on throughout.
func TestScenarioChaosControlAcceptance(t *testing.T) {
	f := scenarioFleet(t)
	wl := bindSpec(t, f, "elastic,hi=2,step=3")
	var cst chaos.Stats
	opts := ebs.Options{
		DurationSec:      12,
		TraceSampleEvery: 1,
		EventSampleEvery: 4,
		MaxVDs:           12,
		Check:            true,
		Scenario:         wl,
		Chaos: &chaos.Plan{
			Seed:        7,
			BSCrashes:   2,
			MeanDownSec: 3,
			Storms:      2,
			StormFactor: 4,
		},
		ChaosStats: &cst,
	}
	pol, err := control.ByName("predictive")
	if err != nil {
		t.Fatal(err)
	}
	ds, plan, err := ebs.New(f).RunControlled(context.Background(), opts, pol, control.Config{EpochSec: 3})
	if err != nil {
		t.Fatalf("RunControlled(elastic + chaos + predictive): %v", err)
	}
	if len(ds.Trace) == 0 {
		t.Fatal("controlled scenario run produced no trace")
	}
	if len(plan.BSLoad) == 0 {
		t.Fatal("controlled scenario run observed no epochs")
	}
	// The same scenario+chaos combination must also hold up uncontrolled.
	opts2 := opts
	opts2.ChaosStats = &chaos.Stats{}
	if _, err := ebs.New(f).Run(context.Background(), opts2); err != nil {
		t.Fatalf("Run(elastic + chaos + check): %v", err)
	}
}

// TestScenarioReshapesTraffic sanity-checks that binding a scenario actually
// changes what the engine observes relative to the fleet's native traffic.
func TestScenarioReshapesTraffic(t *testing.T) {
	f := scenarioFleet(t)
	base := ebs.Options{DurationSec: 8, TraceSampleEvery: 1, EventSampleEvery: 4, MaxVDs: 8}
	native, err := ebs.New(f).Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	// elastic needs a cap floor low enough to actually clip this small
	// fleet's demand (peaks around 0.2% of the base caps), otherwise its
	// dataset legitimately matches native.
	for _, spec := range []string{"bufferbloat", "batchburst", "elastic,lo=0.0001,step=2"} {
		opts := base
		opts.Scenario = bindSpec(t, f, spec)
		ds, err := ebs.New(f).Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("Run(%s): %v", spec, err)
		}
		if invariant.Fingerprint(ds) == invariant.Fingerprint(native) {
			t.Errorf("%s: scenario dataset is identical to the native run", spec)
		}
	}
}

func TestParseSpecCanonical(t *testing.T) {
	sp, err := scenario.ParseSpec("Bufferbloat, duty=0.5 ,period=16")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sp.String(), "bufferbloat,duty=0.5,period=16"; got != want {
		t.Errorf("canonical spec %q, want %q", got, want)
	}
	for _, bad := range []string{"", ",duty=1", "bufferbloat,duty", "bufferbloat,duty=1,duty=2", "bufferbloat,=3"} {
		if _, err := scenario.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): accepted", bad)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	for _, bad := range []string{
		"quakestorm",
		"bufferbloat,bogus=1",
		"bufferbloat,duty=1.5",
		"bufferbloat,period=0",
		"bufferbloat,idle=-1",
		"batchburst,wave=0",
		"batchburst,width=0",
		"batchburst,iosizekb=0",
		"batchburst,cohort=2",
		"elastic,step=0",
		"elastic,lo=0",
		"elastic,lo=1.5",
		"elastic,hi=0.5",
		"replay",
		"replay,path=x,sample=0",
		"replay,path=x,schema=bogus",
		"replay,path=x,timescale=0",
	} {
		if _, err := scenario.Build(bad); err == nil {
			t.Errorf("Build(%q): accepted", bad)
		}
	}
	for _, good := range []string{
		"bufferbloat",
		"batchburst,stagger=2",
		"elastic,hi=16",
		"replay,path=x,sample=3200,schema=msr,timescale=0.5",
	} {
		if _, err := scenario.Build(good); err != nil {
			t.Errorf("Build(%q): %v", good, err)
		}
	}
	if got := scenario.Names(); len(got) != 4 {
		t.Errorf("registry lists %d scenarios, want 4: %v", len(got), got)
	}
}

// TestBindRejectsNilFleet pins the bind-time contract shared by every
// scenario.
func TestBindRejectsNilFleet(t *testing.T) {
	built, err := scenario.Build("bufferbloat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.Bind(nil); err == nil {
		t.Fatal("Bind(nil) accepted")
	}
}
