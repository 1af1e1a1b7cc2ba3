package ebs

import (
	"context"
	"math/rand"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// computeDelay is a DelayModel double on the fleet's native traffic that
// lands its term on StageComputeNode — the stage the throttle queue delay
// also lands on, so the two additive terms collide there (the scenarios in
// the library put theirs elsewhere, so no golden exercises it).
type computeDelay struct{ nativeWorkload }

func (computeDelay) DelaySeries(buf []float64, vd cluster.VDID, series []workload.Sample) ([]float64, trace.Stage) {
	buf = buf[:0]
	for t := range series {
		buf = append(buf, 0.37*float64((t+int(vd))%5)) // µs; zero every fifth second
	}
	return buf, trace.StageComputeNode
}

// TestEngineLatencyIsPerIOReference holds the engine's flush-time latency
// pass to the per-IO reference: every record's Latency must equal
// Table.SampleInto replayed IO by IO on the disk's latency stream (plain
// math/rand, in generation order), plus the four additive terms, each its
// own float32 add, in the engine's order — control migration penalty, chaos
// crash penalty, throttle queue delay, scenario delay. It runs with
// throttled disks, under chaos, under a control timeline, with a DelayModel
// double colliding with the queue delay on StageComputeNode, and with all of
// them at once, and requires every term to have fired somewhere.
func TestEngineLatencyIsPerIOReference(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	base := Options{DurationSec: 20, TraceSampleEvery: 1, EventSampleEvery: 4, Workers: 2}
	withChaos := func(o Options) Options { o.Chaos = chaosPlan(); return o }
	withDelay := func(o Options) Options { o.Scenario = computeDelay{nativeWorkload{f}}; return o }

	fired := map[string]int{}
	for _, c := range []struct {
		name    string
		opts    Options
		control bool
	}{
		{"throttled", base, false},
		{"chaos", withChaos(base), false},
		{"control", base, true},
		{"delay-model", withDelay(base), false},
		{"everything", withDelay(withChaos(base)), true},
	} {
		opts := c.opts
		var ds *trace.Dataset
		var err error
		if c.control {
			pol, perr := control.ByName("oracle")
			if perr != nil {
				t.Fatal(perr)
			}
			var plan *control.Plan
			ds, plan, err = sim.RunControlled(context.Background(), opts, pol, control.Config{EpochSec: 2})
			if err == nil {
				opts.Control = plan.Timeline
			}
		} else {
			ds, err = sim.Run(context.Background(), opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		r, err := sim.begin(opts)
		if err != nil {
			t.Fatal(err)
		}
		o, sched, ctl := &r.opts, r.sched, r.opts.Control

		// Records are in stable (TimeUS, VD) order, so each disk's records
		// appear in generation order.
		byVD := map[cluster.VDID][]int{}
		for i := range ds.Trace {
			byVD[ds.Trace[i].VD] = append(byVD[ds.Trace[i].VD], i)
		}
		sh := &shard{}
		for vd, idxs := range byVD {
			off := sim.offeredBy(sh.series, int(vd), o, sched)
			sh.series = off.series
			queue, extra, stage := sim.delaysOf(sh, int(vd), o, off.boost)
			rng := rand.New(rand.NewSource(latencySeed(o.Seed, vd)))
			for _, i := range idxs {
				rec := &ds.Trace[i]
				var want [trace.NumStages]float32
				sim.table.SampleInto(rng, rec.Op, rec.Size, &want)
				sec := int(rec.TimeUS / 1_000_000)
				if ctl != nil && ctl.MovedAt(ctl.EpochOf(sec), int(rec.Segment)) {
					want[trace.StageBackendNet] += float32(control.MigrationPenaltyUS)
					fired["migration"]++
				}
				if sched != nil && sched.BSDownAt(int(rec.Storage), sec) && sched.PenaltyUS > 0 {
					want[trace.StageFrontendNet] += float32(sched.PenaltyUS)
					fired["crash"]++
				}
				q := sec < len(queue) && queue[sec] > 0
				if q {
					want[trace.StageComputeNode] += float32(queue[sec] * 1e6)
					fired["queue"]++
				}
				if sec < len(extra) && extra[sec] > 0 {
					want[stage] += float32(extra[sec])
					fired["scenario"]++
					if q && stage == trace.StageComputeNode {
						fired["collision"]++
					}
				}
				if rec.Latency != want {
					t.Fatalf("%s: VD %d record at %dµs: latency %v, per-IO reference %v", c.name, vd, rec.TimeUS, rec.Latency, want)
				}
			}
		}
	}
	for _, term := range []string{"migration", "crash", "queue", "scenario", "collision"} {
		if fired[term] == 0 {
			t.Errorf("no record paid the %s term: the differential is vacuous there", term)
		}
	}
	t.Logf("records per term: %v", fired)
}
