package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var writeManifest = flag.Bool("write-manifest", false, "rewrite ../BENCHMARK.json from the catalog instead of comparing")

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestLoad  `json:"workloads"`
	EndToEnd   []manifestE2E   `json:"end_to_end"`
	PerLayer   []manifestLayer `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func catalogManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

// TestManifestMatchesCatalog keeps BENCHMARK.json and the program in
// agreement on workloads, metrics, units, directions and bounds, and holds
// the file to the limits the benchmark driver refuses outside of.
func TestManifestMatchesCatalog(t *testing.T) {
	const path = "../BENCHMARK.json"
	if *writeManifest {
		data, err := json.MarshalIndent(catalogManifest(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := catalogManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json disagrees with the catalog (regenerate with -write-manifest):\n got %+v\nwant %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range got.Workloads {
		once(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	largest := 0.0
	for _, m := range got.EndToEnd {
		once(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
	}
	if s := got.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != largest {
		t.Errorf("setup_s must be present, in s, lower-is-better, with the largest bound: %+v", s)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range got.PerLayer {
		once(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", got.RunSeconds)
	}
}

// TestSmoke runs every workload at a tenth of its size, one block, untraced
// and traced, at the pinned seed 7: every declared metric must come out
// exactly once (report.set refuses a second), finite, under a well-formed
// name, no study may fail — a study whose fingerprint differs from the
// pinned one is a failed study — and the result line must parse back.
func TestSmoke(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			mode := "end-to-end"
			if traced {
				mode = "per-layer"
			}
			t.Run(w.Name+"/"+mode, func(t *testing.T) {
				if _, pinned := pinnedFingerprint(w.Name, 7); !pinned {
					t.Fatalf("no pinned fingerprint for %s at seed 7", w.Name)
				}
				cfg := runConfig{Workload: w.Name, Seed: 7, Seconds: nominalSeconds, Trace: traced, Short: true, SpanDir: t.TempDir()}
				rep, err := runBench(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("attempted=%d failed=%d", rep.Attempted, rep.Failed)
				}
				defs := declared(traced)
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := rep.Metrics[d.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s: emitted=%v value=%v", d.Name, ok, v)
					}
					if !name.MatchString(d.Name) {
						t.Errorf("metric name %q is malformed", d.Name)
					}
				}
				if !traced {
					for _, d := range defs {
						if rep.Metrics[d.Name] <= 0 {
							t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, rep.Metrics[d.Name])
						}
					}
				}

				var out bytes.Buffer
				if err := printReport(&out, cfg, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := line[key]; !ok {
						t.Errorf("result line lacks %q", key)
					}
				}
				if len(line) != 4 {
					t.Errorf("result line has %d keys, want 4", len(line))
				}

				if traced {
					data, err := os.ReadFile(filepath.Join(cfg.SpanDir, w.Name+".spans.json"))
					if err != nil {
						t.Fatal(err)
					}
					var dump struct {
						Spans []span `json:"spans"`
					}
					if err := json.Unmarshal(data, &dump); err != nil || len(dump.Spans) == 0 {
						t.Errorf("span dump: %d spans, err %v", len(dump.Spans), err)
					}
					checkSpanTree(t, dump.Spans)
				}
			})
		}
	}
}

// TestPinnedSeedMismatchFails shows a changed simulated statistic fails the
// benchmark instead of passing it: against a wrong reference every study of
// a run is a failed study.
func TestPinnedSeedMismatchFails(t *testing.T) {
	bw, _ := findWorkload("sim-sampled")
	p, err := bw.prepare(7)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.run(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := reference{fp: out.fingerprint(), quick: out.quickSum()}
	if err := verify(out, nil, ref, true); err != nil {
		t.Errorf("a study does not verify against itself: %v", err)
	}
	other, err := bw.prepare(11)
	if err != nil {
		t.Fatal(err)
	}
	out11, err := other.run(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if verify(out11, nil, ref, false) == nil {
		t.Error("the checksum did not tell seed 11's study from seed 7's")
	}
}

// TestGatewayMix pins what makes ten seeds ten runs of the same work: every
// seed submits the same pool of studies, only their order and the repeats
// differ, and a repeat always points at an earlier new submission.
func TestGatewayMix(t *testing.T) {
	const n = 40
	pool := func(seed int64) map[int64]bool {
		specs := map[int64]bool{}
		mix := gatewayMix(seed, 0, 0, n)
		repeats := 0
		for i, sub := range mix {
			if sub.repeatOf >= 0 {
				repeats++
				orig := mix[sub.repeatOf]
				if sub.repeatOf >= i || orig.repeatOf >= 0 || orig.spec != sub.spec {
					t.Errorf("seed %d submission %d repeats %d badly", seed, i, sub.repeatOf)
				}
				continue
			}
			if specs[sub.spec.Seed] {
				t.Errorf("seed %d submits study seed %d twice as new", seed, sub.spec.Seed)
			}
			specs[sub.spec.Seed] = true
		}
		if want := n * gwRepeatPct / 100; repeats != want {
			t.Errorf("seed %d: %d repeats, want %d", seed, repeats, want)
		}
		return specs
	}
	a, b := pool(1), pool(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 submit different pools of studies")
	}
	if reflect.DeepEqual(gatewayMix(1, 0, 0, n), gatewayMix(2, 0, 0, n)) {
		t.Error("seeds 1 and 2 submit in the same order")
	}
	if !reflect.DeepEqual(gatewayMix(1, 0, 0, n), gatewayMix(1, 0, 0, n)) {
		t.Error("the same seed gave two different mixes")
	}
}

// TestCheckBusy is the load generator's hygiene check: PR 12's gateway run
// burned 35 ms of CPU in 334 ms of wall — it timed the client's poll sleep.
func TestCheckBusy(t *testing.T) {
	if err := checkBusy(35, 334); err == nil || !strings.Contains(err.Error(), "asleep") {
		t.Errorf("a run that sleeps passed the busy check: %v", err)
	}
	if err := checkBusy(12, 3.6); err != nil {
		t.Errorf("a busy run failed the check: %v", err)
	}
}

func TestQuietQuarter(t *testing.T) {
	ph := &phase{}
	for _, ms := range []int64{30, 10, 50, 20, 40, 80, 60, 70} {
		ph.units = append(ph.units, unit{wallNS: ms * 1e6, cpuNS: 2 * ms * 1e6, ios: 1000, studies: 1})
	}
	fast, rest := ph.quiet()
	if len(fast) != 2 || len(rest) != 6 || fast[0].wallNS != 10e6 || fast[1].wallNS != 20e6 {
		t.Fatalf("quiet quarter %+v, rest %+v: want the two fastest of eight, fastest first", fast, rest)
	}
	if got := ph.quietSpread(); got != 55.0/15.0 {
		t.Errorf("quiet spread %v, want mean(30..80)/mean(10,20)", got)
	}
	// On a host running at half the reference speed every time counts half
	// and every rate double.
	rep := &report{Metrics: map[string]float64{}}
	ph.studyMS = []float64{10, 20}
	ph.hostSpeed = 0.5
	ph.endToEndMetrics(rep, 1.5)
	want := map[string]float64{"setup_s": 0.75, "study_p50_ms": 7.5, "cpu_ms_per_study": 15, "ios_per_s": 2 * 2000 / 0.030, "live_heap_mb": 0}
	if !reflect.DeepEqual(rep.Metrics, want) {
		t.Errorf("end-to-end metrics %v, want %v", rep.Metrics, want)
	}
	if one := (&phase{units: ph.units[:1]}); one.quietSpread() != 1 {
		t.Errorf("a single unit has spread %v, want 1", one.quietSpread())
	}
}

// TestHostProbe: the reference kernel does the same work on every call, and
// the speed it reports is the nominal time over the quiet quarter's mean.
func TestHostProbe(t *testing.T) {
	p := newHostProbe()
	p.sample()
	first := p.sink
	p.sample()
	if p.sink != 2*first {
		t.Errorf("two kernel calls summed to %v, one to %v: the kernel's work varies", p.sink, first)
	}
	p.ms = []float64{50, 30, 20, 40, 60, 70, 80, 90} // quiet quarter {20, 30}
	if got, want := p.speed(), refNominalMS/25; got != want {
		t.Errorf("host speed %v, want %v", got, want)
	}
}
