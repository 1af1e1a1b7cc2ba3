package invariant

import (
	"ebslab/internal/sketch"
)

// CheckSketchConservation is the streaming path's conservation law: the
// merged sketch set's exact ingest totals must equal the sum of the
// per-shard totals (Merge neither drops nor duplicates work), and — when
// the workload layer's ground-truth Emission is available — must also equal
// what the generator emitted, IO for IO and byte for byte.
func CheckSketchConservation(rep *Report, merged *sketch.Set, shards []sketch.Totals, em *Emission) {
	const law = "sketch/conservation"
	var sum sketch.Totals
	for _, t := range shards {
		sum.Add(t)
	}
	got := merged.Totals()
	if got != sum {
		rep.Addf(law, "merged sketch totals %+v != summed per-shard ingest %+v", got, sum)
	}
	if em == nil {
		return
	}
	t := em.Total()
	if int64(got.IOs) != t.Events {
		rep.Addf(law, "sketch ingested %d IOs, workload emitted %d", got.IOs, t.Events)
	}
	if wantBytes := t.ReadBytes + t.WriteBytes; int64(got.Bytes) != wantBytes {
		rep.Addf(law, "sketch ingested %d bytes, workload emitted %d", got.Bytes, wantBytes)
	}
}

// CheckSketchDeterminism is the streaming twin of the engine's dataset
// determinism oracle (ebs.TestDeterminismOracle): it invokes run once per
// worker count and asserts every merged sketch set fingerprints identically
// to the first. Sketch state must be a pure
// function of the simulated IO multiset, so any divergence means a shard
// combine leaked scheduling order into the summaries.
func CheckSketchDeterminism(rep *Report, run func(workers int) (*sketch.Set, error), workerCounts ...int) {
	const law = "determinism/sketch"
	if len(workerCounts) < 2 {
		rep.Addf(law, "need at least two worker counts to compare, got %d", len(workerCounts))
		return
	}
	var ref string
	for i, w := range workerCounts {
		set, err := run(w)
		if err != nil {
			rep.Addf(law, "run with %d workers failed: %v", w, err)
			return
		}
		fp := set.Fingerprint()
		if i == 0 {
			ref = fp
			continue
		}
		if fp != ref {
			rep.Addf(law, "sketch state with %d workers diverges from %d workers (%s != %s)",
				w, workerCounts[0], fp[:12], ref[:12])
		}
	}
}
