package invariant

import (
	"ebslab/internal/chaos"
)

// CheckChaosSchedule asserts the fault layer's own laws over an expanded
// schedule: every window is well-formed and in-range, and re-expanding the
// plan against the same (seed, shape) reproduces the schedule bit-exactly —
// the replay-determinism contract every chaos result rests on.
func CheckChaosSchedule(rep *Report, plan *chaos.Plan, runSeed int64, sched *chaos.Schedule) {
	const law = "chaos/schedule"
	if plan == nil || sched == nil {
		rep.Addf(law, "nil plan or schedule")
		return
	}
	if err := plan.Validate(); err != nil {
		rep.Addf(law, "plan invalid: %v", err)
	}
	for i, c := range sched.Crashes {
		if c.BS < 0 || c.BS >= sched.Shape.BSs {
			rep.Addf(law, "crash %d: BS %d outside fleet of %d", i, c.BS, sched.Shape.BSs)
		}
		if c.Start < 0 || c.End <= c.Start || c.Start >= sched.Shape.DurSec {
			rep.Addf(law, "crash %d: window [%d, %d) malformed for a %ds run", i, c.Start, c.End, sched.Shape.DurSec)
		}
		if i > 0 && sched.Crashes[i-1].Start > c.Start {
			rep.Addf(law, "crash %d: windows out of Start order", i)
		}
	}
	for i, st := range sched.Storms {
		if st.VD < 0 || st.VD >= sched.Shape.VDs {
			rep.Addf(law, "storm %d: VD %d outside fleet of %d", i, st.VD, sched.Shape.VDs)
		}
		if st.Start < 0 || st.End <= st.Start || st.Start >= sched.Shape.DurSec {
			rep.Addf(law, "storm %d: window [%d, %d) malformed for a %ds run", i, st.Start, st.End, sched.Shape.DurSec)
		}
		if st.Factor <= 0 {
			rep.Addf(law, "storm %d: factor %v not positive", i, st.Factor)
		}
		if i > 0 && sched.Storms[i-1].Start > st.Start {
			rep.Addf(law, "storm %d: windows out of Start order", i)
		}
	}
	if again := plan.Expand(runSeed, sched.Shape); again.Fingerprint() != sched.Fingerprint() {
		rep.Addf(law, "re-expansion diverges: %s != %s — schedule is not a pure function of (seed, plan, shape)",
			fpShort(again.Fingerprint()), fpShort(sched.Fingerprint()))
	}
}

// fpShort abbreviates a fingerprint for violation messages.
func fpShort(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// CheckChaosNeutrality asserts the fault layer's conservation law: a
// dataset-neutral schedule (no latency penalty, no storms) must leave the
// dataset fingerprint untouched. Pass the fingerprints
// of the chaos run and of the fault-free run at the same seed and options.
func CheckChaosNeutrality(rep *Report, sched *chaos.Schedule, chaosFP, baselineFP string) {
	const law = "chaos/neutrality"
	if sched == nil {
		rep.Addf(law, "nil schedule")
		return
	}
	if !sched.DatasetNeutral() {
		return // disruptive by design; nothing to assert
	}
	if chaosFP != baselineFP {
		rep.Addf(law, "neutral schedule perturbed the dataset (%s != %s)", fpShort(chaosFP), fpShort(baselineFP))
	}
}
