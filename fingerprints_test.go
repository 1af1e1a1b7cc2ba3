package ebslab

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"testing"
	"time"

	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/fabric"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
	"ebslab/internal/workload"
)

// TestBenchFingerprintsHold brings the benchmark's correctness contract into
// tier-1: it reads the pins bench/ keeps in bench/testdata/fingerprints.json
// (read-only — bench/ regenerates them with -pin) and reproduces the
// single-process workloads and the fabric one at both pinned seeds with the
// bench's study recipe (bench/workloads.go: fleet seed 7, one DC of 16
// nodes, 60 s, the first 120 disks, one IO in 8 generated; -seed is
// Options.Seed). The dist pin comes from the bench's fabric study shape: a
// coordinator on an in-process loopback, 8 shards, 2 workers of one engine
// worker each. Its pins equal
// sim-traced's, since a fabric study is byte-identical to the single-process
// run; what the row adds is that the bytes a worker ships and the merge
// reproduce them under the bench's shard plan. A simulated or shipped bit
// that drifts then fails `go test ./...`, not only `bash bench/run.sh`'s
// set-up. The replay and gateway pins need the bench's synthetic CSV and
// submission pool; they stay bench/'s.
func TestBenchFingerprintsHold(t *testing.T) {
	raw, err := os.ReadFile("bench/testdata/fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}

	sim := benchStudySim(t)
	pol, err := control.ByName("reactive")
	if err != nil {
		t.Fatal(err)
	}

	studies := map[string]func(ebs.Options) (string, error){
		"sim-traced": func(o ebs.Options) (string, error) {
			ds, err := sim.Run(context.Background(), o)
			if err != nil {
				return "", err
			}
			return invariant.Fingerprint(ds), nil
		},
		"sim-sampled": func(o ebs.Options) (string, error) {
			o.TraceSampleEvery = 0 // the paper's 1/3200
			set := sketch.NewSet(sketch.Config{})
			o.Stream = set
			ds, err := sim.Run(context.Background(), o)
			if err != nil {
				return "", err
			}
			return invariant.Fingerprint(ds) + "+" + set.Fingerprint(), nil
		},
		"control": func(o ebs.Options) (string, error) {
			ds, plan, err := sim.RunControlled(context.Background(), o, pol, control.Config{EpochSec: 7})
			if err != nil {
				return "", err
			}
			return invariant.Fingerprint(ds) + "+" + plan.LogFingerprint(), nil
		},
		"dist": func(o ebs.Options) (string, error) {
			o.Workers = 1
			co, err := fabric.NewCoordinator(fabric.Config{Fleet: benchStudyFleetConfig(), Opts: o, Shards: 8})
			if err != nil {
				return "", err
			}
			defer co.Stop()
			lb := fabric.NewLoopback()
			srv := netblock.NewHandlerServer(co)
			go srv.Serve(lb) //nolint:errcheck — ends with the loopback
			defer srv.Close()
			defer lb.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			errs := make(chan error, 2)
			for range 2 {
				go func() { errs <- fabric.RunWorker(ctx, fabric.WorkerConfig{Dial: lb.Dial}) }()
			}
			ds, err := co.Wait(ctx)
			if err != nil {
				return "", err
			}
			for range 2 {
				if err := <-errs; err != nil {
					return "", err
				}
			}
			return invariant.Fingerprint(ds), nil
		},
	}
	for _, name := range []string{"sim-traced", "sim-sampled", "control", "dist"} {
		for _, seed := range []int64{7, 11} {
			want := pins[name][strconv.FormatInt(seed, 10)]
			if want == "" {
				t.Fatalf("%s: no pin for seed %d in bench/testdata/fingerprints.json", name, seed)
			}
			got, err := studies[name](benchStudyOptions(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if got != want {
				t.Errorf("%s seed %d: fingerprint %s, pinned %s", name, seed, got, want)
			}
		}
	}
}

// benchStudyFleetConfig is the bench study's fleet (bench/workloads.go:
// fleet seed 7, one DC of 16 nodes, 60 s).
func benchStudyFleetConfig() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Seed = 7
	cfg.DCs = 1
	cfg.NodesPerDC = 16
	cfg.BSPerDC = 12
	cfg.BSPerCluster = 6
	cfg.Users = 16
	cfg.DurationSec = 60
	return cfg
}

// benchStudySim is the bench study's fleet and simulator.
func benchStudySim(t *testing.T) *ebs.Sim {
	t.Helper()
	fleet, err := workload.Generate(benchStudyFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ebs.New(fleet)
}

// benchStudyOptions is the bench study's engine options at bench -seed seed:
// the first 120 disks, one IO in 8 generated, every IO traced.
func benchStudyOptions(seed int64) ebs.Options {
	return ebs.Options{Seed: seed, DurationSec: 60, TraceSampleEvery: 1, EventSampleEvery: 8, MaxVDs: 120, Workers: 2}
}
