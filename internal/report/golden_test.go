package report

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden harness pins the exact rendered text of every visualization
// primitive — sparklines and the exact-vs-sketch accuracy section — to one
// fixture. Run
// `go test ./internal/report -run TestGoldenRender -update` to regenerate
// after an intentional formatting change.
var updateGolden = flag.Bool("update", false, "rewrite the golden render fixture under testdata")

// goldenDocument composes one deterministic document from fixed inputs.
func goldenDocument() string {
	series := make([]float64, 60)
	for i := range series {
		series[i] = 100 + 80*math.Sin(float64(i)/5) + float64(i%7)*10
	}
	series[41] = 900 // burst: must survive downsampling

	var b strings.Builder
	b.WriteString("sparkline:\n  " + Sparkline(series, 30) + "\n")
	b.WriteString(AccuracySection("accuracy: streamed vs exact", []AccuracyRow{
		{Metric: "1%-CCR", Exact: 0.3124, Sketch: 0.3127, Bound: 0.02},
		{Metric: "P2A total", Exact: 4.551, Sketch: 4.551, Bound: 1e-4},
		{Metric: "latency p99", Exact: 1890.2, Sketch: 1901.7, Bound: 0.02},
		{Metric: "active VDs", Exact: 512, Sketch: 540, Bound: 0.05}, // out of bound
		{Metric: "no data", Exact: math.NaN(), Sketch: math.NaN(), Bound: 0.02},
	}))
	b.WriteString(AccuracySection("accuracy: empty", nil))
	return b.String()
}

func TestGoldenRender(t *testing.T) {
	got := goldenDocument()
	path := filepath.Join("testdata", "render.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no fixture %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("rendered output drifted from %s; rerun with -update if intended.\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}
