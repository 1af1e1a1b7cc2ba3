// Command bench is the repository's end-to-end benchmark: six long-run
// workloads over the simulator, the fabric and the gateway, five end-to-end
// metrics a user would feel, and — on a traced run — a ladder of per-layer
// metrics taken from outside, by timing calls into each module's exported
// functions. See README.md and ../BENCHMARK.json.
//
//	bash bench/run.sh --workload sim-traced --seed 7 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		cfg   runConfig
		trace int
		aa    bool
		pin   bool
	)
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: one of "+workloadNames())
	flag.Int64Var(&cfg.Seed, "seed", 7, "seed every input is derived from")
	flag.IntVar(&cfg.Seconds, "seconds", nominalSeconds, "length of the timed phase the repetition counts are scaled to")
	flag.IntVar(&trace, "trace", 0, "1: print the per-layer metrics of a traced pass instead of the end-to-end ones")
	flag.BoolVar(&cfg.Short, "short", false, "test scale: a tenth of the repetitions, one block, one set-up")
	flag.BoolVar(&aa, "aa", false, "run every workload twice on this build, alternating order, and compare the two sets against the bounds")
	flag.BoolVar(&pin, "pin", false, "print testdata/fingerprints.json for the pinned seeds and exit")
	flag.Parse()
	cfg.Trace = trace != 0
	cfg.SpanDir = filepath.Join("bench", "out")
	cfg.Log = os.Stderr

	switch {
	case aa:
		os.Exit(runAA(cfg))
	case pin:
		if err := printPins(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// runBench executes one workload and returns its report.
func runBench(cfg runConfig) (*report, error) {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, workloadNames())
	}
	if cfg.Seconds < 1 {
		return nil, fmt.Errorf("-seconds %d, want >= 1", cfg.Seconds)
	}
	cfg.logf("workload %s, seed %d, %d timed repetitions, GOMAXPROCS %d", w.Name, cfg.Seed, cfg.reps(w), runtime.GOMAXPROCS(0))
	rep := &report{Metrics: map[string]float64{}}
	var err error
	if w.prepare != nil {
		err = runBatch(cfg, w, rep)
	} else {
		err = runGateway(cfg, w, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, checkComplete(cfg, rep)
}

// runBatch is the shape of every batch workload's run: set-up (repeated,
// median), the untraced timed studies, and on a traced run the traced pass
// and the ladder.
func runBatch(cfg runConfig, w workloadDef, rep *report) error {
	probe := newHostProbe()
	p, ref, setupS, err := setUpMedian(cfg, w, probe)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	ph := timedPhase(cfg, w, p, ref, probe)
	rep.Attempted, rep.Failed = ph.attempted, ph.failed
	if !cfg.Trace {
		ph.endToEndMetrics(rep, setupS)
		return nil
	}
	ph.processMetrics(rep)
	for _, name := range gatewayOnly {
		rep.set(name, 0)
	}

	// Traced pass: the same studies, the calls they make wrapped in spans.
	rec := newRecorder()
	n := 5
	if cfg.Short {
		n = 1
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		out, err := p.run(rec, i+1)
		if err := verify(out, err, ref, true); err != nil {
			return fmt.Errorf("traced study %d: %w", i+1, err)
		}
	}
	rep.set("run.trace_overhead_ratio", median(rec.durationsMS("study"))/median(ph.studyMS))
	if err := ladder(cfg, rec, p, rep); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	return writeSpans(spanPath(cfg), w.Name, cfg.Seed, rec.snapshot())
}

func spanPath(cfg runConfig) string {
	return filepath.Join(cfg.SpanDir, cfg.Workload+".spans.json")
}

// declared returns the metrics a run of this kind must print.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// checkComplete holds the run to the catalog: every declared metric set
// once (report.set refuses twice) with a finite value, and nothing else.
func checkComplete(cfg runConfig, rep *report) error {
	defs := declared(cfg.Trace)
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
	}
	if len(rep.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(rep.Metrics), len(defs))
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport writes every metric by name and unit, then the one-line JSON
// result the driver reads as the last line of standard output.
func printReport(out io.Writer, cfg runConfig, rep *report) error {
	line := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "workload %s seed %d: %d studies attempted, %d failed\n", cfg.Workload, cfg.Seed, rep.Attempted, rep.Failed)
	for _, d := range declared(cfg.Trace) {
		v := rep.Metrics[d.Name]
		fmt.Fprintf(out, "  %-28s %16.4f %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

// printPins regenerates testdata/fingerprints.json on standard output.
func printPins(cfg runConfig) error {
	pins := map[string]map[string]string{}
	for _, w := range workloads {
		pins[w.Name] = map[string]string{}
		for _, seed := range pinnedSeeds {
			c := cfg
			c.Workload, c.Seed = w.Name, seed
			fp, err := currentFingerprint(c, w)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			pins[w.Name][fmt.Sprint(seed)] = fp
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	return nil
}

// currentFingerprint computes what this build would pin for w at cfg.Seed.
func currentFingerprint(cfg runConfig, w workloadDef) (string, error) {
	if w.prepare != nil {
		p, err := w.prepare(cfg.Seed)
		if err != nil {
			return "", err
		}
		chk, err := p.check()
		if err != nil {
			return "", err
		}
		return chk.fingerprint(), nil
	}
	s, mixes, err := setUpGateway(cfg, 2*gwPinPrefix)
	if err != nil {
		return "", err
	}
	defer s.close()
	gp := runGatewayPasses(cfg, nil, s, mixes, newHostProbe(), 0, 1)
	if gp.failed > 0 {
		return "", fmt.Errorf("%d of %d studies failed", gp.failed, gp.attempted)
	}
	fp, _ := prefixDigest(mixes, gp.results)
	return fp, nil
}
