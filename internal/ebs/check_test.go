package ebs

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/invariant"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// TestCheckModeCleanRun asserts the runtime validation subsystem passes a
// healthy run: every conservation law must hold by construction.
func TestCheckModeCleanRun(t *testing.T) {
	f := smallFleet(t)
	ds, err := New(f).Run(context.Background(), Options{
		DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: 1,
		MaxVDs: 8, Check: true,
	})
	if err != nil {
		t.Fatalf("check mode rejected a healthy run: %v", err)
	}
	if len(ds.Trace) == 0 {
		t.Fatal("no trace records")
	}
}

// TestCheckModeWithSamplingAndThinning asserts the checkers stay sound when
// the trace is downsampled and the event stream thinned — the conservation
// laws must compare like with like under the scaling factors.
func TestCheckModeWithSamplingAndThinning(t *testing.T) {
	f := smallFleet(t)
	if _, err := New(f).Run(context.Background(), Options{
		DurationSec: 10, TraceSampleEvery: 16, EventSampleEvery: 4,
		MaxVDs: 10, Check: true,
	}); err != nil {
		t.Fatalf("check mode rejected a sampled+thinned run: %v", err)
	}
}

// artifactsOf builds check artifacts for a finished run by independently
// recounting the workload emission.
func artifactsOf(t *testing.T, r *fleetAndRun) *invariant.Artifacts {
	t.Helper()
	em, err := invariant.CountEmission(context.Background(), r.sim.fleet, r.maxVDs, r.dur, 1, 0)
	if err != nil {
		t.Fatalf("CountEmission: %v", err)
	}
	return &invariant.Artifacts{
		Dataset:          r.ds,
		Emission:         em,
		EventSampleEvery: 1,
		TraceSampleEvery: 1,
	}
}

type fleetAndRun struct {
	sim    *Sim
	ds     *trace.Dataset
	maxVDs int
	dur    int
}

func cleanRun(t *testing.T) *fleetAndRun {
	t.Helper()
	f := smallFleet(t)
	sim := New(f)
	const maxVDs, dur = 8, 10
	ds, err := sim.Run(context.Background(), Options{DurationSec: dur, TraceSampleEvery: 1, EventSampleEvery: 1, MaxVDs: maxVDs})
	if err != nil {
		t.Fatal(err)
	}
	return &fleetAndRun{sim: sim, ds: ds, maxVDs: maxVDs, dur: dur}
}

func wantViolation(t *testing.T, rep *invariant.Report, law string) {
	t.Helper()
	if rep.OK() {
		t.Fatalf("corrupted dataset passed all invariants")
	}
	for _, v := range rep.Violations {
		if v.Law == law {
			return
		}
	}
	t.Errorf("no %q violation; got:\n%s", law, rep.String())
}

// TestCheckerCatchesDroppedRecord injects the canonical conservation bug —
// one IO silently dropped mid-merge — and asserts the runtime checker
// convicts it (acceptance criterion of the validation subsystem).
func TestCheckerCatchesDroppedRecord(t *testing.T) {
	r := cleanRun(t)
	a := artifactsOf(t, r)
	if rep := invariant.VerifyRun(a); !rep.OK() {
		t.Fatalf("baseline not clean:\n%s", rep.String())
	}

	// Drop one per-IO record from the middle of the merged trace.
	mid := len(r.ds.Trace) / 2
	r.ds.Trace = append(r.ds.Trace[:mid:mid], r.ds.Trace[mid+1:]...)
	rep := invariant.VerifyRun(a)
	wantViolation(t, rep, "trace/canonical-order")
	wantViolation(t, rep, "conserve/workload")
}

// TestCheckerCatchesDroppedRow injects a shard-merge bug in the metric
// dataset — one compute-domain row lost — and asserts both conservation
// laws convict it.
func TestCheckerCatchesDroppedRow(t *testing.T) {
	r := cleanRun(t)
	a := artifactsOf(t, r)
	mid := len(r.ds.Compute) / 2
	r.ds.Compute = append(r.ds.Compute[:mid:mid], r.ds.Compute[mid+1:]...)
	rep := invariant.VerifyRun(a)
	wantViolation(t, rep, "conserve/compute-vs-storage")
	wantViolation(t, rep, "conserve/workload")
}

// TestCheckerCatchesCorruptedRow injects a single-row miscount (one extra
// 4 KiB write attributed to a segment) and asserts the cross-domain law
// catches it even though every referential field stays valid.
func TestCheckerCatchesCorruptedRow(t *testing.T) {
	r := cleanRun(t)
	a := artifactsOf(t, r)
	r.ds.Storage[len(r.ds.Storage)/3].WriteBps += 4096
	rep := invariant.VerifyRun(a)
	wantViolation(t, rep, "conserve/compute-vs-storage")
}

// TestCheckerCatchesMisattributedRecord points one record at a storage node
// other than the one the placement assigns and asserts referential
// integrity convicts it.
func TestCheckerCatchesMisattributedRecord(t *testing.T) {
	r := cleanRun(t)
	a := artifactsOf(t, r)
	rec := &r.ds.Trace[len(r.ds.Trace)/4]
	rec.Storage++
	rep := invariant.VerifyRun(a)
	wantViolation(t, rep, "trace/integrity")
}

// TestCheckerCatchesMisownedRows corrupts the owner fields of one metric row
// in each domain — a compute row's worker thread, a storage row's VM — and
// asserts row sanity convicts each: a row's identity fields must agree with
// the topology as a record's do.
func TestCheckerCatchesMisownedRows(t *testing.T) {
	t.Run("compute WT", func(t *testing.T) {
		r := cleanRun(t)
		a := artifactsOf(t, r)
		m := &r.ds.Compute[len(r.ds.Compute)/2]
		m.WT = int8(r.ds.Topology.Nodes[m.Node].WorkerNum)
		wantViolation(t, invariant.VerifyRun(a), "metric/row-sanity")
	})
	t.Run("storage VM", func(t *testing.T) {
		r := cleanRun(t)
		a := artifactsOf(t, r)
		m := &r.ds.Storage[len(r.ds.Storage)/2]
		m.VM = (m.VM + 1) % cluster.VMID(len(r.ds.Topology.VMs))
		wantViolation(t, invariant.VerifyRun(a), "metric/row-sanity")
	})
}

// TestDeterminismOracle asserts byte-identical datasets via the replay
// fingerprint in every cell of GOMAXPROCS x Workers — Workers deals the disks
// to shards, and min(GOMAXPROCS, shards) is the merge's fan-out — and for the
// same run taken as eight RunShard partials through MergeShards, the shards
// themselves run on one in-shard worker and on two.
func TestDeterminismOracle(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	opts := Options{DurationSec: 20, TraceSampleEvery: 1, EventSampleEvery: 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	var ref string
	same := func(ds *trace.Dataset, err error, cell string, args ...any) {
		t.Helper()
		cell = fmt.Sprintf(cell, args...)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		// Far above the record count under which a merge stays serial.
		if len(ds.Trace) < 50_000 {
			t.Fatalf("%s: %d records, too few to exercise the partitioned merge", cell, len(ds.Trace))
		}
		fp := invariant.Fingerprint(ds)
		if ref == "" {
			ref = fp
		}
		if fp != ref {
			t.Errorf("%s: dataset fingerprint %s diverges from %s", cell, fp[:12], ref[:12])
		}
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 3, 8} {
			o := opts
			o.Workers = workers
			ds, err := sim.Run(context.Background(), o)
			same(ds, err, "GOMAXPROCS=%d Workers=%d", procs, workers)
		}
		// The fabric's rows: each shard ships its tracers' chunks unmerged —
		// one tracer's, then two tracers' worth — and MergeShards' is the one
		// merge.
		for _, workers := range []int{1, 2} {
			o := opts
			o.Workers = workers
			var parts []*ShardPartial
			for _, r := range cluster.PlanShards(sim.runVDs(o), 8) {
				p, err := sim.RunShard(context.Background(), o, r.Lo, r.Hi)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d Workers=%d RunShard%v: %v", procs, workers, r, err)
				}
				parts = append(parts, p)
			}
			ds, err := sim.MergeShards(o, parts)
			same(ds, err, "GOMAXPROCS=%d RunShard(Workers=%d) x %d -> MergeShards", procs, workers, len(parts))
		}
	}
}

// TestCheckModeErrorNamesLaw asserts a violation surfaces through the Run
// error path with its law identifier, so -check failures are actionable.
func TestCheckModeErrorNamesLaw(t *testing.T) {
	rep := &invariant.Report{}
	rep.Addf("conserve/workload", "VD 3: lost an IO")
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "conserve/workload") {
		t.Fatalf("report error %v does not name the law", err)
	}
}

// BenchmarkVerifyRun times the dataset laws alone on the bench's study
// shape: the single-DC fleet at seed 7 with 16 nodes and 16 users, 60 s,
// 120 disks, one IO in 8 generated and every IO traced (350,040 records).
func BenchmarkVerifyRun(b *testing.B) {
	const dur, vds, thin = 60, 120, 8
	ctx := context.Background()
	f, err := workload.Generate(workload.SingleDC(7, 16, 16, dur))
	if err != nil {
		b.Fatal(err)
	}
	ds, err := New(f).Run(ctx, Options{DurationSec: dur, TraceSampleEvery: 1, EventSampleEvery: thin, MaxVDs: vds, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	em, err := invariant.CountEmission(ctx, f, vds, dur, thin, 2)
	if err != nil {
		b.Fatal(err)
	}
	a := &invariant.Artifacts{Dataset: ds, Emission: em, EventSampleEvery: thin, TraceSampleEvery: 1}
	b.ResetTimer()
	for range b.N {
		if rep := invariant.VerifyRun(a); !rep.OK() {
			b.Fatal(rep)
		}
	}
	b.ReportMetric(float64(len(ds.Trace)), "records")
}
