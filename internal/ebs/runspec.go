package ebs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ebslab/internal/control"
	"ebslab/internal/scenario"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// RunSpec is the whole description of a run, as a plain value: which fleet,
// which engine options, which scenario shapes the traffic and which control
// policy steers it. Everything that turns "a study" into a dataset — the CLI,
// the gateway and its oracle, a fabric worker, the policy bake-off — builds
// one and calls Run (or Open, to run the opened simulator more than once), so
// generate → bind → run is written here and nowhere else. The spec is what
// crosses the fabric's wire: the generator and the scenario library are
// deterministic, so a worker that opens the same spec simulates the
// coordinator's fleet bit for bit.
type RunSpec struct {
	// Fleet is the generation recipe.
	Fleet workload.Config
	// Opts are the engine options. Opts.Scenario must stay nil: a bound
	// scenario belongs to one fleet instance, and Open binds Scenario to the
	// fleet it generates. Destination and callback fields (Stream, ChaosStats,
	// Snapshots, Progress, ...) are honored in-process and never serialized.
	Opts Options
	// Scenario, when non-empty, is the scenario-library spec string
	// ("bufferbloat,period=16") that replaces the fleet's native traffic.
	Scenario string `json:",omitempty"`
	// Control, when non-empty, runs the predict→act loop (RunControlled) under
	// the named policy (control.ByName).
	Control string `json:",omitempty"`
	// EpochSec is the control epoch length (0 = control.DefaultEpochSec of the
	// window). Needs Control.
	EpochSec int `json:",omitempty"`
}

// Validate is the compatibility table of a run description: everything that
// can be refused before a fleet is generated.
func (r RunSpec) Validate() error {
	if err := r.Opts.Validate(); err != nil {
		return err
	}
	if r.Opts.Scenario != nil {
		return fmt.Errorf("ebs: set RunSpec.Scenario (the spec string), not Opts.Scenario: the scenario is bound to the fleet the spec generates")
	}
	if r.Scenario != "" {
		if _, err := scenario.Build(r.Scenario); err != nil {
			return err
		}
	}
	if r.EpochSec < 0 {
		return fmt.Errorf("ebs: RunSpec.EpochSec is %d, want >= 0 (0 = an eighth of the window)", r.EpochSec)
	}
	if r.Control == "" {
		if r.EpochSec != 0 {
			return fmt.Errorf("ebs: RunSpec.EpochSec %d needs a Control policy", r.EpochSec)
		}
		return nil
	}
	if _, err := control.ByName(r.Control); err != nil {
		return err
	}
	// The window, as prepare will resolve it; when neither the options nor
	// the fleet name one, Observe holds the run itself to the rule.
	window := r.Opts.DurationSec
	if window == 0 {
		window = r.Fleet.DurationSec
	}
	if r.EpochSec > 0 && window > 0 {
		return checkEpoch(r.EpochSec, window)
	}
	return nil
}

// errSingleProcess is every layer's answer to an actuated run that is asked
// to shard.
var errSingleProcess = errors.New("ebs: the control loop is sequential over epochs: controlled runs are single-process")

// Distributable reports why a valid spec cannot run as VD-disjoint shards on
// other processes, or nil when it can. The fabric coordinator enforces it;
// front doors call it to refuse (or route in-process) before they build one.
func (r RunSpec) Distributable() error {
	if r.Control != "" || r.Opts.Control != nil {
		return errSingleProcess
	}
	if sp, _ := scenario.ParseSpec(r.Scenario); sp.Name == "replay" {
		return errors.New("ebs: replay scenarios read a local trace file, which cannot be shipped to workers: replay runs are single-process")
	}
	return nil
}

// Open validates the spec, generates its fleet, builds the simulator and binds
// the scenario, returning the simulator with the options to run it under. A
// replay that thinned its trace at ingest sets the options' event sampling to
// that rate, so metric rows re-inflate to full-trace estimates. With
// Opts.Clocks set, Clocks.Bind reads the binding's wall time.
func (r RunSpec) Open() (*Sim, Options, error) {
	if err := r.Validate(); err != nil {
		return nil, Options{}, err
	}
	fleet, err := workload.Generate(r.Fleet)
	if err != nil {
		return nil, Options{}, fmt.Errorf("ebs: generate fleet: %w", err)
	}
	opts := r.Opts
	if r.Scenario != "" {
		start := stopwatch(opts.Clocks != nil).now()
		if opts.Scenario, err = scenario.BindSpec(r.Scenario, fleet); err != nil {
			return nil, Options{}, err
		}
		if opts.Clocks != nil {
			opts.Clocks.Bind = time.Since(start)
		}
		if es, ok := opts.Scenario.(interface{ EventSampleEvery() int }); ok {
			opts.EventSampleEvery = es.EventSampleEvery()
		}
	}
	return New(fleet), opts, nil
}

// Run opens the spec and runs it: RunUnder the spec's policy. The plan is nil
// for an uncontrolled run.
func (r RunSpec) Run(ctx context.Context) (*trace.Dataset, *control.Plan, error) {
	sim, opts, err := r.Open()
	if err != nil {
		return nil, nil, err
	}
	return sim.RunUnder(ctx, opts, r.Control, r.EpochSec)
}

// RunUnder runs opts under the named control policy — the full predict→act
// loop of RunControlled at the given epoch length — or, when policy is empty,
// plainly (the plan is then nil). It is the second half of RunSpec.Run, for
// callers that Open once and run more than once or report on what was opened.
func (s *Sim) RunUnder(ctx context.Context, opts Options, policy string, epochSec int) (*trace.Dataset, *control.Plan, error) {
	if policy == "" {
		ds, err := s.Run(ctx, opts)
		return ds, nil, err
	}
	pol, err := control.ByName(policy)
	if err != nil {
		return nil, nil, err
	}
	return s.RunControlled(ctx, opts, pol, control.Config{EpochSec: epochSec})
}
