// Package ctleval runs the mitigation control plane's policy bake-off: one
// fleet, one seed, one (optional) chaos plan, every requested policy run
// through the full predict→act loop, with imbalance and hot-spot metrics
// reported side by side. The no-op policy doubles as the uncontrolled
// baseline — its timeline is empty, so its dataset is byte-identical to a
// plain run — which makes the report self-calibrating: any policy's win or
// loss is read directly against the noop row.
package ctleval

import (
	"context"
	"fmt"
	"strings"

	"ebslab/internal/chaos"
	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/workload"
)

// Spec describes one evaluation scenario. The zero value of every field
// defaults sensibly except Fleet, which must be a valid workload config.
type Spec struct {
	// Fleet is the workload configuration the scenario generates.
	Fleet workload.Config
	// Opts are the run options shared by every policy (Chaos may be set
	// here; Control/Observe must be left nil — RunControlled owns them).
	Opts ebs.Options
	// Control tunes the controller; zero fields take control.Config defaults.
	Control control.Config
	// Scenario, when non-empty, reshapes the fleet's traffic with a
	// scenario-library spec string ("elastic,step=10", ...) before every
	// policy runs — the bake-off then measures how each policy copes with
	// that scenario. Record-sourced replays are rejected by the engine
	// (measured latencies cannot be re-actuated). Opts.Scenario must be
	// left nil: ebs.RunSpec binds the scenario.
	Scenario string
	// Policies names the policies to evaluate, in report order (see
	// control.ByName). Empty means the canonical four-way bake-off:
	// noop, reactive, predictive-holt, oracle.
	Policies []string
}

// Outcome is one policy's row of the side-by-side report.
type Outcome struct {
	Policy string
	// Decision-log composition.
	Decisions   int
	Migrations  int
	Evacuations int
	Lends       int
	Rebinds     int
	// Imbalance and hot-spot metrics over the run's epochs, measured under
	// the placement the policy actually produced (control.Imbalance over
	// Plan.BSLoad).
	MeanCoV   float64
	MaxCoV    float64
	PeakShare float64
	// FaultedIOs counts IOs that landed on a crashed BS in the actuated
	// pass — evacuations off dying servers drive this down.
	FaultedIOs int64
	// LogFP fingerprints the decision log; DatasetFP the actuated dataset.
	LogFP     string
	DatasetFP string
}

// Report is the full bake-off result.
type Report struct {
	Epochs   int
	Outcomes []Outcome
}

// DefaultPolicies is the canonical bake-off lineup.
var DefaultPolicies = []string{"noop", "reactive", "predictive-holt", "oracle"}

// Run executes the scenario once per policy. Every policy sees the same
// fleet, seed, chaos schedule and observation — the spec is opened once and
// observed once — and only the forecasts differ.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	sim, base, err := ebs.RunSpec{Fleet: spec.Fleet, Opts: spec.Opts, Scenario: spec.Scenario}.Open()
	if err != nil {
		return nil, fmt.Errorf("ctleval: %w", err)
	}
	policies := spec.Policies
	if len(policies) == 0 {
		policies = DefaultPolicies
	}
	// The observation is a function of the offered traffic alone, so one
	// observe pass serves every policy, and each actuated pass replays the
	// traffic it kept.
	obs, err := sim.Observe(ctx, base, spec.Control.EpochSec)
	if err != nil {
		return nil, fmt.Errorf("ctleval: %w", err)
	}
	defer obs.Release()
	rep := &Report{}
	for _, name := range policies {
		opts := base
		var cst chaos.Stats
		if opts.Chaos != nil {
			opts.ChaosStats = &cst
		}
		pol, err := control.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("ctleval: %w", err)
		}
		ds, plan, err := sim.RunObserved(ctx, opts, pol, obs)
		if err != nil {
			return nil, fmt.Errorf("ctleval: policy %s: %w", name, err)
		}
		imb := control.Imbalance(plan.BSLoad)
		rep.Epochs = len(plan.BSLoad)
		rep.Outcomes = append(rep.Outcomes, Outcome{
			Policy:      name,
			Decisions:   len(plan.Decisions),
			Migrations:  plan.Count(control.DecMigrate),
			Evacuations: plan.Count(control.DecEvacuate),
			Lends:       plan.Count(control.DecLend),
			Rebinds:     plan.Count(control.DecRebind),
			MeanCoV:     imb.MeanCoV,
			MaxCoV:      imb.MaxCoV,
			PeakShare:   imb.PeakShare,
			FaultedIOs:  cst.FaultedIOs,
			LogFP:       plan.LogFingerprint(),
			DatasetFP:   invariant.Fingerprint(ds),
		})
	}
	return rep, nil
}

// Find returns the outcome row of one policy, or nil.
func (r *Report) Find(policy string) *Outcome {
	for i := range r.Outcomes {
		if r.Outcomes[i].Policy == policy {
			return &r.Outcomes[i]
		}
	}
	return nil
}

// String renders the side-by-side table the CLI prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %6s %6s %6s %6s %8s\n",
		"policy", "meanCoV", "maxCoV", "peakShr", "migr", "evac", "lend", "rebind", "faulted")
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "%-16s %9.4f %9.4f %9.4f %6d %6d %6d %6d %8d\n",
			o.Policy, o.MeanCoV, o.MaxCoV, o.PeakShare,
			o.Migrations, o.Evacuations, o.Lends, o.Rebinds, o.FaultedIOs)
	}
	return b.String()
}
