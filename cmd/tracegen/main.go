// Command tracegen synthesizes an EBS fleet, runs the end-to-end stack
// simulation, and writes the two study datasets (sampled per-IO trace and
// full-scale per-second metrics) as CSV, in the schema of §2.3 / Table 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ebslab/internal/ebs"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "fleet generation seed")
		out      = flag.String("out", "dataset", "output directory")
		dur      = flag.Int("dur", 120, "observation window seconds")
		nodes    = flag.Int("nodes", 24, "compute nodes per DC")
		dcs      = flag.Int("dcs", 2, "data centers")
		maxVDs   = flag.Int("max-vds", 200, "virtual disks to simulate (0 = all)")
		sample   = flag.Int("sample", trace.SampleRate, "per-IO trace sampling (1 = trace everything)")
		evSample = flag.Int("event-sample", 4, "IO generation thinning for tractability")
	)
	flag.Parse()

	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	cfg.DCs = *dcs
	cfg.NodesPerDC = *nodes
	cfg.BSPerDC = 12
	cfg.BSPerCluster = 6
	cfg.Users = 20 * *dcs
	cfg.DurationSec = *dur

	ds, _, err := ebs.RunSpec{Fleet: cfg, Opts: ebs.Options{
		DurationSec:      *dur,
		TraceSampleEvery: *sample,
		EventSampleEvery: *evSample,
		MaxVDs:           *maxVDs,
	}}.Run(context.Background())
	if err != nil {
		fatal("simulate: %v", err)
	}

	if err := trace.SaveDir(ds, *out); err != nil {
		fatal("save: %v", err)
	}
	fmt.Printf("wrote %s/{%s,%s,%s,%s,%s,%s}\n", *out,
		trace.FileTraceCSV, trace.FileTraceJSONL,
		trace.FileMetricCompute, trace.FileMetricStorage,
		trace.FileSpecVD, trace.FileSpecVM)
	fmt.Printf("dataset: %d trace records, %d compute rows, %d storage rows over %ds\n",
		len(ds.Trace), len(ds.Compute), len(ds.Storage), ds.DurationSec)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
