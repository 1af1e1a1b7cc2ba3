package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ebslab/internal/ebs"
	"ebslab/internal/hypervisor"
	"ebslab/internal/invariant"
	"ebslab/internal/workload"
)

// The golden harness pins the headline statistics of the figure and
// ablation pipelines to byte-exact JSON fixtures. Any change to the
// generator, the statistics, or the mitigation models shows up as a fixture
// diff; run `go test ./internal/core -run TestGolden -update` (the `make
// golden` target) to regenerate after an intentional change.
var updateGolden = flag.Bool("update", false, "rewrite golden fixtures under testdata/golden")

// goldenStudy is a dedicated small fleet so the fixture stays cheap to
// recompute and independent of the statistical test fleet.
var (
	goldenOnce  sync.Once
	goldenS     *Study
	goldenSErr  error
	goldenDur   = 120
	goldenMaxVD = 16
)

func goldenStudy(t *testing.T) *Study {
	t.Helper()
	goldenOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.DCs = 1
		cfg.NodesPerDC = 24
		cfg.BSPerDC = 8
		cfg.BSPerCluster = 4
		cfg.Users = 24
		cfg.DurationSec = goldenDur
		goldenS, goldenSErr = NewStudy(cfg)
	})
	if goldenSErr != nil {
		t.Fatalf("NewStudy: %v", goldenSErr)
	}
	return goldenS
}

// sanitize converts a result tree to a JSON-encodable form with floats
// rounded to 9 significant digits (well above the noise floor of any real
// regression, well below reorder-sensitivity of float summation) and the
// JSON-unrepresentable values replaced by string sentinels.
func sanitize(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		return roundSig(v.Float())
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return sanitize(v.Elem())
	case reflect.Struct:
		out := make(map[string]any, v.NumField())
		tp := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if tp.Field(i).IsExported() {
				out[tp.Field(i).Name] = sanitize(v.Field(i))
			}
		}
		return out
	case reflect.Slice, reflect.Array:
		out := make([]any, v.Len())
		for i := 0; i < v.Len(); i++ {
			out[i] = sanitize(v.Index(i))
		}
		return out
	case reflect.Map:
		out := make(map[string]any, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			out[fmt.Sprint(iter.Key().Interface())] = sanitize(iter.Value())
		}
		return out
	default:
		if s, ok := v.Interface().(fmt.Stringer); ok && v.Kind() != reflect.String &&
			!v.CanInt() && !v.CanUint() {
			return s.String()
		}
		return v.Interface()
	}
}

// roundSig rounds to 9 significant digits; NaN and infinities become string
// sentinels (JSON cannot encode them).
func roundSig(f float64) any {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	case f == 0:
		return 0.0
	}
	exp := math.Floor(math.Log10(math.Abs(f)))
	scale := math.Pow(10, 8-exp)
	return math.Round(f*scale) / scale
}

func goldenCompare(t *testing.T, name string, result any) {
	t.Helper()
	tree := sanitize(reflect.ValueOf(result))
	got, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		t.Fatalf("marshal %s: %v", name, err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no fixture %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden fixture %s (first diff at %q); rerun with -update if intended",
			name, path, firstDiffLine(got, want))
	}
}

// firstDiffLine returns the first line where got and want diverge.
func firstDiffLine(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d: %s != %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(gl), len(wl))
}

// TestGoldenFigures pins the headline statistics of Figures 2-7.
func TestGoldenFigures(t *testing.T) {
	s := goldenStudy(t)
	goldenCompare(t, "table2", s.Table2Summary())
	goldenCompare(t, "fig2b", s.Fig2bThreeTier())
	goldenCompare(t, "fig2c", s.Fig2cHottestQP())
	goldenCompare(t, "fig3b", s.Fig3bRAR(false))
	goldenCompare(t, "fig3de", s.Fig3deReduction())
	goldenCompare(t, "fig3fg", s.Fig3fgLendingGain(false))
	goldenCompare(t, "fig4a", s.Fig4aFrequentMigration())
	goldenCompare(t, "fig4b", s.Fig4bImporterSelection())
	goldenCompare(t, "fig5a", s.Fig5aReadWriteCoV())
	goldenCompare(t, "fig5b", s.Fig5bSegmentDominance())
	goldenCompare(t, "fig5c", s.Fig5cWriteThenRead())
	goldenCompare(t, "fig6", s.Fig6HottestBlocks(VDSampleOptions{MaxVDs: 12, MaxEventsPerVD: 4000}))
	goldenCompare(t, "fig7a", s.Fig7aHitRatio(VDSampleOptions{MaxVDs: 8, MaxEventsPerVD: 4000}))
	goldenCompare(t, "fig7d", s.Fig7dSpaceUtilization())
	goldenCompare(t, "fig2d", s.Fig2dRebinding(RebindOptions{MaxNodes: 8, WinSec: 60}))
	goldenCompare(t, "fig2ef", s.Fig2efBurstSeries(NodeWindowOptions{MaxNodes: 8, WinSec: 8}))
	goldenCompare(t, "fig4c", s.Fig4cPredictionMSE())
	goldenCompare(t, "fig7bc", s.Fig7bcLatencyGain(VDSampleOptions{MaxVDs: 6, MaxEventsPerVD: 2000}))
	if err := s.Laws(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenAblations pins the mitigation ablations.
func TestGoldenAblations(t *testing.T) {
	s := goldenStudy(t)
	goldenCompare(t, "ablation_dispatch", s.AblateDispatch(DispatchOptions{MaxNodes: 8, WinSec: 8}))
	goldenCompare(t, "ablation_hosting", s.AblateHosting(NodeWindowOptions{MaxNodes: 8, WinSec: 8}))
	goldenCompare(t, "ablation_cachepolicy", s.AblateCachePolicy(VDSampleOptions{MaxVDs: 6, MaxEventsPerVD: 2000}))
	goldenCompare(t, "ablation_predictors", s.AblatePredictors())
	goldenCompare(t, "ablation_failover", s.AblateFailover())
	goldenCompare(t, "ablation_deployment", s.AblateCacheDeployment(VDSampleOptions{MaxVDs: 6, MaxEventsPerVD: 2000}))
	// The catalog's rebind-period rows: 10, 100 and 500 ms periods.
	var rebind []Fig2dResult
	for _, p := range []int{1, 10, 50} {
		rebind = append(rebind, s.Fig2dRebinding(RebindOptions{MaxNodes: 8, WinSec: 60,
			Config: hypervisor.RebindConfig{PeriodSlots: p, Trigger: 1.2, EvalSlots: 5}}))
	}
	goldenCompare(t, "ablation_rebind", rebind)
	if err := s.Laws(); err != nil {
		t.Fatal(err)
	}
}

// goldenEngineRun is the engine configuration whose dataset fingerprint the
// fixture pins byte-exactly.
func goldenEngineRun(t *testing.T, workers int) *invariant.Artifacts {
	t.Helper()
	s := goldenStudy(t)
	ds, err := ebs.New(s.Fleet).Run(context.Background(), ebs.Options{
		DurationSec: 20, TraceSampleEvery: 1, EventSampleEvery: 4,
		MaxVDs: goldenMaxVD, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &invariant.Artifacts{Dataset: ds, EventSampleEvery: 4, TraceSampleEvery: 1}
}

// TestGoldenEngineFingerprint pins the end-to-end engine output: one hash
// covers every trace record and metric row, so a single IO dropped,
// duplicated, or relabeled anywhere in the path flips the fixture.
func TestGoldenEngineFingerprint(t *testing.T) {
	a := goldenEngineRun(t, 0)
	goldenCompare(t, "engine_fingerprint", map[string]any{
		"fingerprint": invariant.Fingerprint(a.Dataset),
		"records":     len(a.Dataset.Trace),
		"computeRows": len(a.Dataset.Compute),
		"storageRows": len(a.Dataset.Storage),
	})
}

// TestGoldenFingerprintConvictsDroppedIO is the golden half of the
// injected-bug acceptance test: dropping one IO from the merged dataset
// (the canonical shard-merge conservation bug) must change the pinned
// fingerprint.
func TestGoldenFingerprintConvictsDroppedIO(t *testing.T) {
	a := goldenEngineRun(t, 0)
	before := invariant.Fingerprint(a.Dataset)
	mid := len(a.Dataset.Trace) / 2
	a.Dataset.Trace = append(a.Dataset.Trace[:mid:mid], a.Dataset.Trace[mid+1:]...)
	if after := invariant.Fingerprint(a.Dataset); after == before {
		t.Fatal("fingerprint unchanged after dropping an IO; the golden pin is vacuous")
	}
}
