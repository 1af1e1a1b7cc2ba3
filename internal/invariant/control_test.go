package invariant_test

import (
	"fmt"
	"strings"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/diting"
	"ebslab/internal/invariant"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
)

// controlScenario builds a small world whose reactive plan contains both
// migrations and lending grants, then returns the plan with the inputs the
// actuation law replays against.
func controlScenario(t *testing.T) (*control.Plan, *cluster.SegmentMap, []int8, []throttle.Caps) {
	t.Helper()
	sh := control.ObsShape{
		EpochSec: 10, DurSec: 40,
		Segments: 4, VDs: 2, QPs: 2, WTs: 2,
		WTBase: []int{0}, Scale: 1,
	}
	obs := control.NewObservation(sh)
	batch := trace.NewBatch(128)
	for sec := 0; sec < 40; sec += 2 {
		for _, seg := range []int{0, 1} {
			i := batch.Next()
			batch.TimeUS[i] = int64(sec) * 1_000_000
			batch.Op[i] = trace.OpWrite
			batch.Size[i] = 4 << 20
			batch.VD[i] = 0
			batch.QP[i] = 0
			batch.Segment[i] = cluster.SegmentID(seg)
		}
		i := batch.Next()
		batch.TimeUS[i] = int64(sec) * 1_000_000
		batch.Op[i] = trace.OpRead
		batch.Size[i] = 4096
		batch.VD[i] = 1
		batch.QP[i] = 1
		batch.WT[i] = 1
		batch.Segment[i] = 2
	}
	tr := diting.New(trace.SampleRate)
	tr.EmitBatch(batch)
	obs.AddRows(tr.ComputeRows(), tr.StorageRows())

	placement := cluster.NewSegmentMap(4, 2)
	placement.Assign(0, 0)
	placement.Assign(1, 0)
	placement.Assign(2, 1)
	placement.Assign(3, 1)
	binding := []int8{0, 1}
	caps := []throttle.Caps{
		{Tput: 1 << 20, IOPS: 1000},
		{Tput: 64 << 20, IOPS: 1000},
	}
	plan, err := control.BuildPlan(control.Reactive{}, control.Config{EpochSec: 10}, control.Input{
		Obs: obs, Placement: placement, Binding: binding, Caps: caps,
		VMOfVD: []int{0, 0}, NodeOfQP: []int{0, 0},
	})
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	var migrates, lends int
	for _, d := range plan.Decisions {
		switch d.Kind {
		case control.DecMigrate:
			migrates++
		case control.DecLend:
			lends++
		}
	}
	if migrates == 0 || lends == 0 {
		t.Fatalf("scenario wants both migrations and lends, got %d/%d", migrates, lends)
	}
	return plan, placement, binding, caps
}

func TestControlActuationLawHolds(t *testing.T) {
	plan, placement, binding, caps := controlScenario(t)
	rep := &invariant.Report{}
	invariant.CheckControlActuation(rep, plan, placement, binding, caps)
	if !rep.OK() {
		t.Fatalf("clean plan violates the actuation law:\n%s", rep)
	}
}

func TestControlActuationLawCatchesTampering(t *testing.T) {
	t.Run("dropped decision", func(t *testing.T) {
		plan, placement, binding, caps := controlScenario(t)
		var dropped control.Decision
		for i, d := range plan.Decisions {
			if d.Kind == control.DecMigrate {
				dropped = d
				plan.Decisions = append(plan.Decisions[:i:i], plan.Decisions[i+1:]...)
				break
			}
		}
		rep := &invariant.Report{}
		invariant.CheckControlActuation(rep, plan, placement, binding, caps)
		want := fmt.Sprintf("epoch %d: timeline places segment %d on BS %d, decision replay on %d",
			dropped.Epoch, dropped.Seg, dropped.To, dropped.From)
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("dropped decision not flagged as %q:\n%s", want, rep)
		}
	})
	t.Run("rerouted migration", func(t *testing.T) {
		plan, placement, binding, caps := controlScenario(t)
		for i := range plan.Decisions {
			if plan.Decisions[i].Kind == control.DecMigrate {
				plan.Decisions[i].To = plan.Decisions[i].From
				break
			}
		}
		rep := &invariant.Report{}
		invariant.CheckControlActuation(rep, plan, placement, binding, caps)
		if rep.OK() {
			t.Fatalf("rerouted migration not flagged")
		}
	})
	t.Run("minting lend", func(t *testing.T) {
		plan, placement, binding, caps := controlScenario(t)
		for i, d := range plan.Decisions {
			if d.Kind == control.DecLend && d.TputDelta < 0 {
				// Flip a debit into a grant: the epoch now mints cap.
				plan.Decisions[i].TputDelta = -d.TputDelta
				break
			}
		}
		rep := &invariant.Report{}
		invariant.CheckControlActuation(rep, plan, placement, binding, caps)
		if rep.OK() || !strings.Contains(rep.String(), "mints") {
			t.Fatalf("minting lend not flagged:\n%s", rep)
		}
	})
	t.Run("nil timeline", func(t *testing.T) {
		plan, placement, binding, caps := controlScenario(t)
		plan.Timeline = nil
		rep := &invariant.Report{}
		invariant.CheckControlActuation(rep, plan, placement, binding, caps)
		if rep.OK() {
			t.Fatalf("nil timeline not flagged")
		}
	})
}
