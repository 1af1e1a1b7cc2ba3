// Package gateway is the serving plane: a persistent multi-tenant service
// that accepts skewness-study submissions over the netblock protocol's
// gateway ops (SubmitStudy, StudyStatus, StreamSnapshot, CancelStudy,
// TenantStats), queues them FIFO per tenant behind token-bucket submission
// caps, dequeues with weighted-fair queueing, and executes each study
// in-process (ebs.RunSpec.Run). Tenants can stream incremental sketch
// snapshots of a running study, and the final answer is always byte-identical
// to a single-process run of the same spec. See DESIGN.md, "Serving plane".
// The binary frames (wire.go: EBG2 submit, EBG3 snapshot) are walks over the
// internal/wire cursor.
package gateway

import (
	"flag"
	"fmt"
	"strings"

	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/scenario"
	"ebslab/internal/workload"
)

// StudySpec is a tenant's study request: the seed-addressed slice of the
// synthetic fleet to observe and how to sample it. The zero value of every
// field except Seed means "gateway default" (see withDefaults); the mapping
// from spec to fleet configuration and run options is exported precisely so
// test oracles can run the identical study through ebs.Run directly.
type StudySpec struct {
	// Seed selects the fleet (same seed, same fleet, same traffic).
	Seed int64
	// DurationSec is the observation window (default 8).
	DurationSec int
	// Nodes is the compute-node count of the single-DC study fleet
	// (default 4).
	Nodes int
	// Users is the tenant count inside the study fleet (default 16).
	Users int
	// MaxVDs bounds how many virtual disks are simulated (0 = all).
	MaxVDs int
	// EventSampleEvery thins the generated IO stream (default 8).
	EventSampleEvery int
	// TraceSampleEvery is the per-IO trace sampling rate (default 1).
	TraceSampleEvery int
	// Shards is the fabric shard count of ebssim's distributed roles (0 =
	// fabric default). A gateway runs every study in-process and ignores
	// it, but it is part of the study's content address.
	Shards int
	// LeaderKills schedules chaos kills of the acting fabric leader
	// mid-study under ebssim -dist -replicas. A gateway refuses a spec that
	// sets it.
	LeaderKills int
	// Control, when non-empty, runs the study through the mitigation
	// control plane (ebs.RunControlled) under the named policy — one of
	// control.ByName's: noop, reactive, predictive[-holt|-arima|-gbt],
	// oracle. The control loop is sequential over epochs, so a controlled
	// study cannot shard: Shards and LeaderKills must be zero.
	Control string
	// ControlEpochSec is the control epoch length (default: an eighth of
	// the study window, at least 1s — eight control decisions per study).
	// Must be zero when Control is empty, and shorter than the window
	// otherwise (ebs.RunSpec.Validate's rule).
	ControlEpochSec int
	// Scenario, when non-empty, reshapes the study fleet's traffic with a
	// scenario-library spec string ("bufferbloat", "elastic,step=4", ...).
	// Replay scenarios are not servable — they read server-local trace
	// files, which an untrusted submission must not be able to do; run them
	// through cmd/ebssim instead. Composes with Control and with ebssim's
	// fabric roles (workers rebuild the scenario from the spec string).
	Scenario string
}

// BindFlags registers one flag per study dimension on fs, each parsing into
// s and defaulting to s's current value, so every program that takes a study
// on its command line spells it the same way and keeps its own defaults.
func (s *StudySpec) BindFlags(fs *flag.FlagSet) {
	fs.Int64Var(&s.Seed, "seed", s.Seed, "fleet generation seed")
	fs.IntVar(&s.DurationSec, "dur", s.DurationSec, "observation window seconds (0 = 8)")
	fs.IntVar(&s.Nodes, "nodes", s.Nodes, "compute nodes of the single-DC study fleet (0 = 4)")
	fs.IntVar(&s.Users, "users", s.Users, "tenants inside the study fleet (0 = 16)")
	fs.IntVar(&s.MaxVDs, "max-vds", s.MaxVDs, "virtual disks to simulate (0 = all)")
	fs.IntVar(&s.Shards, "shards", s.Shards, "fabric shard count of ebssim's distributed roles (0 = fabric default); a gateway runs the study in-process and ignores it")
	fs.IntVar(&s.LeaderKills, "leader-kill", s.LeaderKills, "chaos kills of the acting fabric leader mid-study under ebssim -dist -replicas; the study must still match single-process bit for bit (a gateway refuses it)")
	fs.StringVar(&s.Control, "control", s.Control, "run the study through the mitigation control plane under this policy (noop, reactive, predictive[-holt|-arima|-gbt], oracle)")
	fs.IntVar(&s.ControlEpochSec, "epoch-sec", s.ControlEpochSec, "with -control: control epoch length in seconds (0 = an eighth of -dur, at least 1)")
	fs.StringVar(&s.Scenario, "scenario", s.Scenario, "reshape the study's traffic with a scenario-library spec string (one of: "+strings.Join(scenario.Names(), ", ")+
		"; e.g. \"bufferbloat\", \"elastic,step=10,hi=2\"; \"replay,path=FILE\" replays a trace file, auto-detecting native trace.jsonl/trace.csv, MSR and tianchi schemas, and runs single-process only: a gateway refuses it)")
}

// Spec bounds: the gateway decodes specs from untrusted connections, so every
// dimension is capped to what the serving host can actually execute.
const (
	maxTenantLen   = 64
	maxDuration    = 3600
	maxNodes       = 1024
	maxUsers       = 4096
	maxSpecVDs     = 1 << 20
	maxSampling    = 1 << 20
	maxSpecShards  = 256
	maxControlLen  = 32
	maxScenarioLen = 128
)

// withDefaults fills zero-valued dimensions with the gateway's laptop-scale
// study defaults. Submissions are normalized before keying, so two specs that
// differ only in spelled-out defaults dedup as one study.
func (s StudySpec) withDefaults() StudySpec {
	if s.DurationSec == 0 {
		s.DurationSec = 8
	}
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.Users == 0 {
		s.Users = 16
	}
	if s.EventSampleEvery == 0 {
		s.EventSampleEvery = 8
	}
	if s.TraceSampleEvery == 0 {
		s.TraceSampleEvery = 1
	}
	if s.Control != "" && s.ControlEpochSec == 0 {
		s.ControlEpochSec = control.DefaultEpochSec(s.DurationSec)
	}
	return s
}

// Validate bounds a normalized spec. Call after withDefaults.
func (s StudySpec) Validate() error {
	for _, c := range []struct {
		name    string
		v       int
		min, mx int
	}{
		{"DurationSec", s.DurationSec, 1, maxDuration},
		{"Nodes", s.Nodes, 1, maxNodes},
		{"Users", s.Users, 1, maxUsers},
		{"MaxVDs", s.MaxVDs, 0, maxSpecVDs},
		{"EventSampleEvery", s.EventSampleEvery, 1, maxSampling},
		{"TraceSampleEvery", s.TraceSampleEvery, 1, maxSampling},
		{"Shards", s.Shards, 0, maxSpecShards},
	} {
		if c.v < c.min || c.v > c.mx {
			return fmt.Errorf("gateway: spec %s is %d, want [%d, %d]", c.name, c.v, c.min, c.mx)
		}
	}
	if len(s.Scenario) > maxScenarioLen {
		return fmt.Errorf("gateway: spec Scenario is %d bytes, want <= %d", len(s.Scenario), maxScenarioLen)
	}
	if len(s.Control) > maxControlLen {
		return fmt.Errorf("gateway: spec Control name is %d bytes, want <= %d", len(s.Control), maxControlLen)
	}
	rs := s.RunSpec()
	if err := rs.Validate(); err != nil {
		return err
	}
	if sp, _ := scenario.ParseSpec(s.Scenario); sp.Name == "replay" {
		return fmt.Errorf("gateway: replay scenarios read server-local trace files and are not servable; run them through cmd/ebssim")
	}
	if s.LeaderKills != 0 {
		return fmt.Errorf("gateway: spec LeaderKills is %d: a gateway runs every study in-process, with no fabric leader to kill; run leader-kill studies through ebssim -dist -replicas", s.LeaderKills)
	}
	if s.Shards != 0 {
		// A study that cannot shard cannot carry a shard count either.
		if err := rs.Distributable(); err != nil {
			return fmt.Errorf("gateway: Shards must be 0: %w", err)
		}
	}
	return nil
}

// FleetConfig maps the spec onto a workload generation recipe: the single-DC
// study fleet every front door runs, so a gateway study, a CLI run and a
// dataset export of the same dimensions observe the identical fleet.
func (s StudySpec) FleetConfig() workload.Config {
	s = s.withDefaults()
	return workload.SingleDC(s.Seed, s.Nodes, s.Users, s.DurationSec)
}

// RunOptions maps the spec onto engine options. Every study runs checked: the
// options always set Check, so the invariant suite holds each one to its
// laws. The gateway adds its own Stream/Snapshots destinations per
// execution; chaos leader kills are fabric configuration, not engine
// options, and ebssim adds them to its fabric roles.
func (s StudySpec) RunOptions() ebs.Options {
	s = s.withDefaults()
	return ebs.Options{
		DurationSec:      s.DurationSec,
		TraceSampleEvery: s.TraceSampleEvery,
		EventSampleEvery: s.EventSampleEvery,
		MaxVDs:           s.MaxVDs,
		Check:            true,
	}
}

// RunSpec is the study as the engine's run description: FleetConfig,
// RunOptions, the scenario and the control policy. The gateway's executions
// and the test oracle both run exactly this value.
func (s StudySpec) RunSpec() ebs.RunSpec {
	return ebs.RunSpec{
		Fleet:    s.FleetConfig(),
		Opts:     s.RunOptions(),
		Scenario: s.Scenario,
		Control:  s.Control,
		EpochSec: s.ControlEpochSec,
	}
}
