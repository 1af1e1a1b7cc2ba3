// Command analyze generates a synthetic EBS fleet and runs the paper's
// analyses over it, printing paper-style tables. Select experiments with
// -run (comma-separated ids from core.Catalog: t2,t3,t4,f2,...,f7,ab) or run
// everything with -run all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ebslab/internal/core"
	"ebslab/internal/workload"
)

func main() {
	catalog := core.Catalog()
	var ids []string
	for _, e := range catalog {
		ids = append(ids, e.ID)
	}
	var (
		seed  = flag.Int64("seed", 1, "fleet generation seed")
		scale = flag.String("scale", "medium", "fleet scale: small | medium | large")
		dur   = flag.Int("dur", 0, "observation window seconds (0 = scale default)")
		run   = flag.String("run", "all", "experiments to run (comma list: "+strings.Join(ids, ",")+")")
		quiet = flag.Bool("q", false, "suppress progress timing")
	)
	flag.Parse()

	cfg, err := configForScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Seed = *seed
	if *dur > 0 {
		cfg.DurationSec = *dur
	}
	study, err := core.NewStudy(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generate fleet:", err)
		os.Exit(1)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := want["all"]
	sel := func(id string) bool { return all || want[id] }

	for _, e := range catalog {
		if !sel(e.ID) {
			continue
		}
		start := time.Now()
		fmt.Print(e.Render(study))
		if !*quiet {
			fmt.Printf("  [%s in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Println()
		}
	}
}

// configForScale returns fleet configurations at three sizes.
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
