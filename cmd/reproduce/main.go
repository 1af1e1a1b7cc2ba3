// Command reproduce runs the complete reproduction — every table, figure,
// and ablation — and writes a self-contained markdown report with the
// measured values, suitable for diffing against EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ebslab/internal/core"
	"ebslab/internal/workload"
)

func main() {
	var (
		seed = flag.Int64("seed", 1, "fleet generation seed")
		out  = flag.String("out", "", "write the report here instead of stdout")
		fast = flag.Bool("fast", false, "small fleet / short window (CI mode)")
	)
	flag.Parse()

	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	if *fast {
		cfg.DCs = 2
		cfg.NodesPerDC = 40
		cfg.BSPerDC = 12
		cfg.Users = 60
		cfg.DurationSec = 240
	}
	start := time.Now()
	study, err := core.NewStudy(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	fmt.Fprintf(w, "# Reproduction report (seed %d, %d DCs, %d VMs, %ds window)\n\n",
		cfg.Seed, cfg.DCs, len(study.Fleet.Topology.VMs), cfg.DurationSec)
	for _, e := range core.Catalog() {
		fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", e.Title, e.Render(study))
	}

	fmt.Fprintf(w, "_Generated in %v._\n", time.Since(start).Round(time.Second))
}
