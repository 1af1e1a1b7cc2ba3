// Package invariant is the simulation's runtime validation subsystem: plain
// check functions that assert the cross-layer conservation laws the study's
// conclusions rest on. Every IO emitted by internal/workload must be
// accounted for at the hypervisor (compute-domain metric rows), the
// throttle (grants never exceed the cap-plus-lent budget), the BlockServer
// (storage-domain metric rows), and the cache (hits+misses == accesses);
// shard merging must neither drop nor duplicate work; and replays must be
// byte-identical under differing worker counts and VD permutations.
//
// The engine runs VerifyRun and the layer laws that apply when
// ebs.Options.Check is set, and every program sets it for every study it
// runs: an ebssim run in any role, a gateway study, and the shards ebsd
// workers run for either. The other programs check themselves too: analyze
// runs the throttle audit, CheckStream, SimulateChecked and CheckBalancer
// inside every experiment that drives those layers, and ebsgate runs
// CheckGatewayAccounting and CheckGrantPacing over its gateway once a
// selftest study settles and after a served gateway shuts down. Tests call
// the individual CheckX functions directly. A violation is a bug in the
// simulator, never in the workload: the laws hold by construction, so any
// failure means semantic drift.
package invariant

import (
	"fmt"
	"strings"
)

// Violation is one broken law. Law is a stable slash-separated identifier
// ("conserve/compute-vs-storage"); Msg carries the specifics.
type Violation struct {
	Law string
	Msg string
}

func (v Violation) String() string { return v.Law + ": " + v.Msg }

// maxPerLaw bounds how many violations of one law a report retains, so a
// systemic bug reports its shape without flooding memory.
const maxPerLaw = 8

// Report collects violations across checkers. The zero value is ready to
// use.
type Report struct {
	Violations []Violation
	perLaw     map[string]int
	suppressed int
}

// Addf records one violation of law, suppressing beyond maxPerLaw per law.
func (r *Report) Addf(law, format string, args ...any) {
	if r.perLaw == nil {
		r.perLaw = make(map[string]int)
	}
	r.perLaw[law]++
	if r.perLaw[law] > maxPerLaw {
		r.suppressed++
		return
	}
	r.Violations = append(r.Violations, Violation{Law: law, Msg: fmt.Sprintf(format, args...)})
}

// AddAll records pre-rendered violation messages under one law (used to
// fold audit logs from other packages into a report).
func (r *Report) AddAll(law string, msgs []string) {
	for _, m := range msgs {
		r.Addf(law, "%s", m)
	}
}

// OK reports whether every law held.
func (r *Report) OK() bool { return len(r.Violations) == 0 && r.suppressed == 0 }

// Err returns nil when the report is clean, or an error rendering every
// retained violation.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("invariant: %s", r.String())
}

// String renders the report for logs.
func (r *Report) String() string {
	if r.OK() {
		return "all invariants hold"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d violation(s)", len(r.Violations)+r.suppressed)
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if r.suppressed > 0 {
		fmt.Fprintf(&b, "\n  (%d further suppressed)", r.suppressed)
	}
	return b.String()
}

// VerifyRun holds a run's artifacts to the dataset laws. It walks each table
// once: the records for trace/integrity and trace/canonical-order, then both
// metric domains in step for metric/row-sanity and
// conserve/compute-vs-storage, and last, from the totals those walks
// gathered, conserve/workload when an Emission is supplied. The laws are
// pure observers: they never mutate the artifacts.
func VerifyRun(a *Artifacts) *Report {
	rep := &Report{}
	disks := disksOf(a.Dataset.Topology)
	records := checkTrace(rep, a, disks)
	rows := checkRows(rep, a, disks)
	checkWorkload(rep, a, rows, records)
	return rep
}
