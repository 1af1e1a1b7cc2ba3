// Command benchgate compares a fresh benchmark run against the committed
// baseline (both as `go test -json` streams, the format `make bench` writes
// to BENCH_baseline.json) and fails when the hot path regresses: an
// allocs/op growth beyond the tolerance on any benchmark present in both
// files. Allocation counts are deterministic, so the gate can be tight;
// timings (ns/op, ios-per-sec) are inside this host's run-to-run spread at
// any tolerance worth having, so the current run's result line is printed
// for the reader and never gated — timing claims live in bench/. After an
// intentional change, rerun with -update-baseline to promote the current run
// to the new baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

type options struct {
	baseline string
	current  string
	update   bool
	// tolerance is the allowed relative allocs/op growth: 0.10 passes
	// anything within 10% above the baseline.
	tolerance float64
	// allocSlack absorbs tiny absolute alloc jitter on benchmarks with very
	// few allocations, where one stray allocation would exceed 10%.
	allocSlack float64
}

// result holds one benchmark's gated metric and the line it came from.
type result struct {
	line        string
	allocsPerOp float64
}

func main() {
	var opts options
	flag.StringVar(&opts.baseline, "baseline", "BENCH_baseline.json", "baseline `go test -json` stream")
	flag.StringVar(&opts.current, "current", "BENCH_current.json", "current `go test -json` stream")
	flag.BoolVar(&opts.update, "update-baseline", false, "promote the current run to the baseline instead of gating")
	flag.Float64Var(&opts.tolerance, "tolerance", 0.10, "allowed relative allocs/op growth")
	flag.Float64Var(&opts.allocSlack, "alloc-slack", 2, "absolute allocs/op growth always tolerated")
	flag.Parse()

	if opts.update {
		if err := promote(opts.current, opts.baseline); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("benchgate: %s promoted to %s\n", opts.current, opts.baseline)
		return
	}

	base, err := parseBenchJSON(opts.baseline)
	if err != nil {
		fatal("parse baseline: %v", err)
	}
	cur, err := parseBenchJSON(opts.current)
	if err != nil {
		fatal("parse current: %v", err)
	}
	if len(base) == 0 {
		fatal("baseline %s holds no benchmark results", opts.baseline)
	}
	if len(cur) == 0 {
		fatal("current %s holds no benchmark results", opts.current)
	}

	names := make([]string, 0, len(base))
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fatal("no benchmark appears in both %s and %s", opts.baseline, opts.current)
	}

	var failures []string
	for _, name := range names {
		b, c := base[name], cur[name]
		ceil := b.allocsPerOp*(1+opts.tolerance) + opts.allocSlack
		status := "ok"
		if c.allocsPerOp > ceil {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op %.0f exceeds %.0f (baseline %.0f + %.0f%% + %.0f)",
				name, c.allocsPerOp, ceil, b.allocsPerOp, 100*opts.tolerance, opts.allocSlack))
		}
		fmt.Printf("benchgate: %s\n", c.line)
		fmt.Printf("benchgate: %-44s allocs/op   %12.0f  baseline %12.0f  %s\n", name, c.allocsPerOp, b.allocsPerOp, status)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "benchgate: intentional? rerun `make bench-gate UPDATE_BASELINE=1` and commit the new baseline\n")
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within %.0f%% of baseline allocs/op\n", len(names), 100*opts.tolerance)
}

// event is the subset of the `go test -json` stream benchgate reads.
type event struct {
	Action string
	Output string
}

// parseBenchJSON extracts benchmark results from a `go test -json` stream.
// The test binary's output is chunked into Output events at arbitrary byte
// boundaries — a single benchmark result line routinely spans two events —
// so the events are concatenated first and split into lines after.
func parseBenchJSON(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var out strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("%s: not a `go test -json` stream: %w", path, err)
		}
		if ev.Action == "output" {
			out.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	results := make(map[string]result)
	for _, line := range strings.Split(out.String(), "\n") {
		name, r, ok := parseBenchLine(line)
		if ok {
			results[name] = r
		}
	}
	return results, nil
}

// parseBenchLine parses one benchmark result line, e.g.
//
//	BenchmarkSimWorkers/workers=1  387  3059294 ns/op  207564 ios-per-sec  1378752 B/op  1297 allocs/op
//
// returning its allocs/op. Lines that are not benchmark results (or carry no
// allocs/op) report ok=false.
func parseBenchLine(line string) (string, result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || !strings.Contains(line, "ns/op") {
		return "", result{}, false
	}
	for i := 1; i+1 < len(fields); i++ {
		if fields[i+1] != "allocs/op" {
			continue
		}
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, false
		}
		return fields[0], result{line: strings.TrimSpace(line), allocsPerOp: v}, true
	}
	return "", result{}, false
}

// promote copies current over baseline, validating it parses first so a
// broken run cannot wipe the committed baseline.
func promote(current, baseline string) error {
	results, err := parseBenchJSON(current)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("%s holds no benchmark results; refusing to overwrite %s", current, baseline)
	}
	data, err := os.ReadFile(current)
	if err != nil {
		return err
	}
	return os.WriteFile(baseline, data, 0o644)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
