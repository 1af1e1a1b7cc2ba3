// Package chaos is the deterministic fault-injection layer of the
// simulator: a Plan describes *how much* trouble a run should see
// (BlockServer crash-and-recover windows, hot-tenant traffic storms and
// coordinator leader kills), and Expand turns the plan into a concrete
// Schedule — the exact windows, derived from (seed, plan, fleet shape) with
// the same per-entity derived-RNG discipline as internal/workload and
// internal/par, so the schedule is byte-identical across runs, worker
// counts, and expansion order.
//
// Expand clamps every crash and storm window to close before the run ends,
// so each fault recovers in-run by construction.
//
// The engine consumes the schedule in two ways, both deterministic:
//
//   - IOs that target a BlockServer inside a crash window are counted
//     (Stats.FaultedIOs) and, when FailoverPenaltyUS is set, pay a fixed
//     frontend-network latency penalty — the detour to the failover
//     replica. The online controller (internal/control) reads the same
//     windows and evacuates a crashed BlockServer's segments; it is the one
//     mitigation that acts on crashes.
//   - VDs inside a storm window offer StormFactor times their calibrated
//     demand, which drives the throttle into the §5 symptoms.
//
// The leader-kill windows are the fabric's (fabric.ReplicaSet). Wire faults
// are not a plan's: a test injects them from the transport it hands the
// RPC layer (internal/netblock/netblocktest).
//
// A schedule whose dataset-visible knobs are zero (no penalty, no storms)
// is *dataset neutral*: the run must reproduce the fault-free dataset
// fingerprint bit-exactly. That property is what keeps the chaos machinery
// honest — it is pinned by invariant.CheckChaosNeutrality and the golden
// scenario test.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ebslab/internal/wire"
	"ebslab/internal/xrand"
)

// Stream tags. Each fault family draws from its own derived stream, so
// adding storms to a plan never perturbs where its crashes land.
const (
	tagCrash uint64 = 0xC4A54
	tagStorm uint64 = 0x570F4
	tagLead  uint64 = 0x1EAD0
)

// Plan describes a fault campaign in fleet-independent terms. The zero
// value is a no-op plan. Plans are pure configuration: expanding one never
// mutates it, and the same (plan, seed, shape) always yields the same
// Schedule.
type Plan struct {
	// Seed drives the fault streams (0 = derive from the run seed, so the
	// default plan follows the simulation seed around).
	Seed int64
	// BSCrashes is how many BlockServer crash-and-recover windows to
	// schedule.
	BSCrashes int
	// MeanDownSec is the mean crash window length (default 5).
	MeanDownSec int
	// FailoverPenaltyUS is added to the frontend-network latency of every
	// IO that targets a crashed BlockServer — the failover detour. Zero
	// observes crash windows without touching the dataset.
	FailoverPenaltyUS float64
	// Storms is how many hot-tenant traffic storms to schedule.
	Storms int
	// StormFactor multiplies a storming VD's offered demand (default 8).
	StormFactor float64
	// MeanStormSec is the mean storm length (default 5).
	MeanStormSec int
	// LeaderKills is how many coordinator leader-kill faults to schedule.
	// Each one kills whichever coordinator replica currently leads the
	// fabric's replicated control plane once the shard ledger has accepted
	// its trigger count of results (the trigger is logical — a result
	// count — not a wall-clock second, so the fault lands at the same
	// control-plane point on every run). Consumed by fabric.ReplicaSet;
	// single-replica runs and the in-engine fault machinery ignore it.
	// Leader kills never touch the dataset: the surviving replicas resume
	// from the replicated ledger and the merged dataset fingerprint stays
	// byte-identical to the fault-free run.
	LeaderKills int
}

// Validate rejects plan values that have no meaning.
func (p *Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"BSCrashes", p.BSCrashes},
		{"MeanDownSec", p.MeanDownSec},
		{"Storms", p.Storms},
		{"MeanStormSec", p.MeanStormSec},
		{"LeaderKills", p.LeaderKills},
	} {
		if f.v < 0 {
			return fmt.Errorf("chaos: Plan.%s is %d, want >= 0", f.name, f.v)
		}
	}
	if math.IsNaN(p.FailoverPenaltyUS) || math.IsInf(p.FailoverPenaltyUS, 0) || p.FailoverPenaltyUS < 0 {
		return fmt.Errorf("chaos: Plan.FailoverPenaltyUS is %v, want a finite value >= 0", p.FailoverPenaltyUS)
	}
	if math.IsNaN(p.StormFactor) || math.IsInf(p.StormFactor, 0) || p.StormFactor < 0 {
		return fmt.Errorf("chaos: Plan.StormFactor is %v, want a finite value >= 0", p.StormFactor)
	}
	return nil
}

// Shape is the fleet geometry a plan is expanded against.
type Shape struct {
	BSs    int // storage nodes
	VDs    int // virtual disks
	DurSec int // observation window
	// Shards is the fabric shard-plan size (0 outside distributed runs).
	// Leader-kill triggers are drawn from [1, Shards-1] so the kill always
	// lands strictly mid-run: after some results are in, before the last.
	Shards int
}

// Window is a half-open interval of whole seconds, [Start, End).
type Window struct {
	Start int
	End   int
}

// Contains reports whether sec lies inside the window.
func (w Window) Contains(sec int) bool { return sec >= w.Start && sec < w.End }

// Crash is one BlockServer outage window.
type Crash struct {
	BS int
	Window
}

// Storm is one hot-tenant burst: the VD offers Factor times its calibrated
// demand for the window.
type Storm struct {
	VD     int
	Factor float64
	Window
}

// LeaderKill is one control-plane fault: kill whichever coordinator
// replica is leading once AfterResults shard results have been accepted
// into the replicated ledger. The window is logical rather than temporal —
// its position in the run is fixed by control-plane progress, which is
// what makes the fault schedule replayable regardless of worker speed.
type LeaderKill struct {
	AfterResults int
}

// Schedule is a fully expanded fault plan: concrete windows against a
// concrete fleet shape. It is immutable after Expand.
type Schedule struct {
	Shape       Shape
	PenaltyUS   float64      // frontend-net penalty for IOs targeting a down BS
	Crashes     []Crash      // sorted by (Start, BS)
	Storms      []Storm      // sorted by (Start, VD)
	LeaderKills []LeaderKill // sorted by AfterResults, deduplicated
}

// Expand derives the concrete schedule of p against shape. The plan seed
// (or runSeed when the plan seed is zero) feeds one derived stream per
// window, so the i-th crash is the same crash no matter how many storms the
// plan also carries. Every window is clamped to close within shape.DurSec.
func (p *Plan) Expand(runSeed int64, shape Shape) *Schedule {
	seed := p.Seed
	if seed == 0 {
		seed = runSeed
	}
	s := &Schedule{Shape: shape, PenaltyUS: p.FailoverPenaltyUS}
	// Leader kills are logical windows keyed on control-plane progress,
	// not seconds, so they expand even for a zero-duration shape. Each
	// trigger draws from its own derived stream; equal draws collapse to
	// one kill (two kills at the same ledger count would race the same
	// leader).
	if p.LeaderKills > 0 && shape.Shards > 1 {
		seen := make(map[int]bool)
		for i := 0; i < p.LeaderKills; i++ {
			rng := xrand.Get(xrand.SubSeed(seed, tagLead, uint64(i)))
			after := 1 + rng.Intn(shape.Shards-1)
			rng.Release()
			if !seen[after] {
				seen[after] = true
				s.LeaderKills = append(s.LeaderKills, LeaderKill{AfterResults: after})
			}
		}
		sort.Slice(s.LeaderKills, func(i, j int) bool {
			return s.LeaderKills[i].AfterResults < s.LeaderKills[j].AfterResults
		})
	}
	if shape.DurSec <= 0 {
		return s
	}
	meanDown := p.MeanDownSec
	if meanDown <= 0 {
		meanDown = 5
	}
	if shape.BSs > 0 {
		for i := 0; i < p.BSCrashes; i++ {
			rng := xrand.Get(xrand.SubSeed(seed, tagCrash, uint64(i)))
			c := Crash{BS: rng.Intn(shape.BSs)}
			c.Start = rng.Intn(shape.DurSec)
			c.End = c.Start + xrand.GeometricAtLeast1(rng, float64(meanDown))
			rng.Release()
			clampRecoverable(&c.Window, shape.DurSec)
			s.Crashes = append(s.Crashes, c)
		}
	}
	factor := p.StormFactor
	if factor == 0 {
		factor = 8
	}
	meanStorm := p.MeanStormSec
	if meanStorm <= 0 {
		meanStorm = 5
	}
	if shape.VDs > 0 && factor != 1 {
		for i := 0; i < p.Storms; i++ {
			rng := xrand.Get(xrand.SubSeed(seed, tagStorm, uint64(i)))
			st := Storm{VD: rng.Intn(shape.VDs), Factor: factor}
			st.Start = rng.Intn(shape.DurSec)
			st.End = st.Start + xrand.GeometricAtLeast1(rng, float64(meanStorm))
			rng.Release()
			clampRecoverable(&st.Window, shape.DurSec)
			s.Storms = append(s.Storms, st)
		}
	}
	sort.Slice(s.Crashes, func(i, j int) bool {
		a, b := s.Crashes[i], s.Crashes[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.BS != b.BS {
			return a.BS < b.BS
		}
		return a.End < b.End
	})
	sort.Slice(s.Storms, func(i, j int) bool {
		a, b := s.Storms[i], s.Storms[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.VD != b.VD {
			return a.VD < b.VD
		}
		return a.End < b.End
	})
	return s
}

// clampRecoverable shifts a window back so it closes within the run.
func clampRecoverable(w *Window, durSec int) {
	if w.End <= durSec {
		return
	}
	over := w.End - durSec
	w.Start -= over
	w.End -= over
	if w.Start < 0 {
		w.Start = 0
	}
}

// BSDownAt reports whether BlockServer bs is inside a crash window at sec.
func (s *Schedule) BSDownAt(bs, sec int) bool {
	for _, c := range s.Crashes {
		if c.Start > sec {
			break // sorted by Start
		}
		if c.BS == bs && c.Contains(sec) {
			return true
		}
	}
	return false
}

// StormBoost returns the demand multiplier of vd at sec (1 outside storms;
// overlapping storms compound).
func (s *Schedule) StormBoost(vd, sec int) float64 {
	b := 1.0
	for _, st := range s.Storms {
		if st.Start > sec {
			break
		}
		if st.VD == vd && st.Contains(sec) {
			b *= st.Factor
		}
	}
	return b
}

// VDStormFn returns a per-second boost function for vd, or nil when the VD
// never storms — the engine's fast path.
func (s *Schedule) VDStormFn(vd int) func(sec int) float64 {
	has := false
	for _, st := range s.Storms {
		if st.VD == vd {
			has = true
			break
		}
	}
	if !has {
		return nil
	}
	return func(sec int) float64 { return s.StormBoost(vd, sec) }
}

// DatasetNeutral reports whether the schedule can leave no residue in the
// dataset: no latency penalty and no storms (Expand closes every window
// in-run). A neutral schedule's run must fingerprint identically to the
// fault-free run (invariant.CheckChaosNeutrality enforces this).
func (s *Schedule) DatasetNeutral() bool {
	return s.PenaltyUS == 0 && len(s.Storms) == 0
}

// Fingerprint returns a collision-resistant digest of the full schedule:
// shape, penalty, and every window field in order. Two expansions replay
// identically iff their fingerprints match.
func (s *Schedule) Fingerprint() string {
	d := new(wire.Digest)
	d.I64(int64(s.Shape.BSs))
	d.I64(int64(s.Shape.VDs))
	d.I64(int64(s.Shape.DurSec))
	d.F64(s.PenaltyUS)
	d.I64(int64(len(s.Crashes)))
	for _, c := range s.Crashes {
		d.I64(int64(c.BS))
		d.I64(int64(c.Start))
		d.I64(int64(c.End))
	}
	d.I64(int64(len(s.Storms)))
	for _, st := range s.Storms {
		d.I64(int64(st.VD))
		d.I64(int64(st.Start))
		d.I64(int64(st.End))
		d.F64(st.Factor)
	}
	// The leader-kill section is appended only when present so that every
	// fingerprint minted before control-plane faults existed — including
	// the committed golden fixtures — stays valid for kill-free schedules.
	if len(s.LeaderKills) > 0 {
		d.I64(int64(s.Shape.Shards))
		d.I64(int64(len(s.LeaderKills)))
		for _, k := range s.LeaderKills {
			d.I64(int64(k.AfterResults))
		}
	}
	return d.Sum()
}

// String renders a human-readable schedule summary.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos schedule (%d BSs, %d VDs, %ds window)", s.Shape.BSs, s.Shape.VDs, s.Shape.DurSec)
	if s.PenaltyUS > 0 {
		fmt.Fprintf(&b, ", failover penalty %.0fus", s.PenaltyUS)
	}
	for _, c := range s.Crashes {
		fmt.Fprintf(&b, "\n  crash: BS %d down [%ds, %ds)", c.BS, c.Start, c.End)
	}
	for _, st := range s.Storms {
		fmt.Fprintf(&b, "\n  storm: VD %d x%.1f [%ds, %ds)", st.VD, st.Factor, st.Start, st.End)
	}
	for _, k := range s.LeaderKills {
		fmt.Fprintf(&b, "\n  leader-kill: after %d accepted results", k.AfterResults)
	}
	if len(s.Crashes)+len(s.Storms)+len(s.LeaderKills) == 0 {
		b.WriteString("\n  (no fault windows)")
	}
	return b.String()
}

// Stats is the fault accounting of one simulation run. Per-shard counters
// are summed during the merge, so totals are worker-count independent.
type Stats struct {
	// CrashWindows and StormWindows describe the expanded schedule.
	CrashWindows int
	StormWindows int
	// FaultedIOs counts IOs that targeted a BlockServer inside a crash
	// window (whether or not a latency penalty applied).
	FaultedIOs int64
	// StormIOs counts IOs emitted while their VD was inside a storm window.
	StormIOs int64
}

// Merge folds another shard's counters into s.
func (s *Stats) Merge(o Stats) {
	s.FaultedIOs += o.FaultedIOs
	s.StormIOs += o.StormIOs
}

// String renders the accounting for reports.
func (s Stats) String() string {
	return fmt.Sprintf("chaos stats: %d crash windows, %d storm windows, %d faulted IOs, %d storm IOs",
		s.CrashWindows, s.StormWindows, s.FaultedIOs, s.StormIOs)
}
