// Command analyze generates a synthetic EBS fleet, runs the paper's analyses
// over it and prints a self-contained markdown report: a header naming the
// fleet, then one section per experiment with its paper-style tables, in
// catalog order. Select experiments with -run (comma-separated ids from
// core.Catalog: t2,t3,t4,f2,...,f7,ab) or run everything with -run all.
// Stdout is a function of the flags alone; per-experiment timings go to
// stderr. Every experiment runs the laws of the layers it drives (throttle
// grants, cache accounting, balancer migration replay); a broken one exits
// 1 naming the experiment and the law.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ebslab/internal/core"
	"ebslab/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is analyze on explicit arguments and streams; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	catalog := core.Catalog()
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed  = fs.Int64("seed", 1, "fleet generation seed")
		scale = fs.String("scale", "medium", "fleet scale: small | medium | large")
		dur   = fs.Int("dur", 0, "observation window seconds (0 = scale default)")
		ids   = fs.String("run", "all", "experiments to run (comma list: "+idList(catalog)+")")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	selected, err := selectExperiments(catalog, *ids)
	if err != nil {
		fmt.Fprintln(stderr, "analyze:", err)
		return 2
	}
	cfg, err := configForScale(*scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg.Seed = *seed
	if *dur > 0 {
		cfg.DurationSec = *dur
	}
	start := time.Now()
	study, err := core.NewStudy(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "generate fleet:", err)
		return 1
	}
	if err := writeReport(stdout, stderr, study, selected); err != nil {
		fmt.Fprintln(stderr, "analyze:", err)
		return 1
	}
	fmt.Fprintf(stderr, "_Generated in %v._\n", time.Since(start).Round(time.Second))
	return 0
}

// writeReport renders the selected experiments over study as markdown on out
// — the header, then per experiment a "## Title" heading and its rendering
// in a fenced block — and each experiment's wall-clock time on timing. An
// experiment that broke one of the study's laws is not printed: the error
// names the experiment and the law.
func writeReport(out, timing io.Writer, study *core.Study, selected []core.Experiment) error {
	cfg := study.Fleet.Cfg
	fmt.Fprintf(out, "# Reproduction report (seed %d, %d DCs, %d VMs, %ds window)\n\n",
		cfg.Seed, cfg.DCs, len(study.Fleet.Topology.VMs), study.Dur)
	for _, e := range selected {
		start := time.Now()
		body := e.Render(study)
		if err := study.Laws(); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(out, "## %s\n\n```\n%s```\n\n", e.Title, body)
		fmt.Fprintf(timing, "[%s in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// selectExperiments resolves a -run value (comma-separated catalog ids, or
// "all") to the experiments to render, in catalog order. An id the catalog
// does not hold is an error naming every such id and the valid ones — a typo
// must not silently run nothing.
func selectExperiments(catalog []core.Experiment, run string) ([]core.Experiment, error) {
	known := make(map[string]bool, len(catalog))
	for _, e := range catalog {
		known[e.ID] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if !known[id] && id != "all" {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("-run names unknown experiment(s) %s: want all or a comma list of %s",
			strings.Join(unknown, ", "), idList(catalog))
	}
	var out []core.Experiment
	for _, e := range catalog {
		if want["all"] || want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// idList renders the catalog's ids the way -run takes them.
func idList(catalog []core.Experiment) string {
	ids := make([]string, len(catalog))
	for i, e := range catalog {
		ids[i] = e.ID
	}
	return strings.Join(ids, ",")
}

// configForScale returns fleet configurations at three sizes; small is the
// quick one.
func configForScale(scale string) (workload.Config, error) {
	cfg := workload.DefaultConfig()
	switch scale {
	case "large":
		cfg.NodesPerDC = 240
		cfg.BSPerDC = 36
		cfg.Users = 300
		cfg.DurationSec = 1800
	case "medium":
		// DefaultConfig is the medium scale.
	case "small":
		cfg.NodesPerDC = 40
		cfg.BSPerDC = 12
		cfg.Users = 60
		cfg.DurationSec = 300
	default:
		return cfg, fmt.Errorf("unknown scale %q (want small|medium|large)", scale)
	}
	return cfg, nil
}
