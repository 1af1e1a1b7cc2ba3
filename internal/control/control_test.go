package control

import (
	"math/rand"
	"strings"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/diting"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
)

// testShape is a deliberately tiny world: 4 segments, 2 VDs, 2 QPs, one
// node with 2 WTs, 3 epochs of 10s (the last truncated to 5s).
func testShape() ObsShape {
	return ObsShape{
		EpochSec: 10, DurSec: 25,
		Segments: 4, VDs: 2, QPs: 2, WTs: 2,
		WTBase: []int{0}, Scale: 1,
	}
}

func TestObsShapeEpochs(t *testing.T) {
	sh := testShape()
	if got := sh.Epochs(); got != 3 {
		t.Fatalf("Epochs() = %d, want 3 (ceil 25/10)", got)
	}
	bad := sh
	bad.EpochSec = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("Validate accepted EpochSec 0")
	}
}

// observe appends one synthetic IO row to a batch.
func observe(b *trace.Batch, sec int, op trace.Op, size int32, vd, qp, seg int, wt int8) {
	i := b.Next()
	b.TimeUS[i] = int64(sec) * 1_000_000
	b.Op[i] = op
	b.Size[i] = size
	b.VD[i] = cluster.VDID(vd)
	b.QP[i] = cluster.QPID(qp)
	b.WT[i] = wt
	b.Node[i] = 0
	b.Segment[i] = cluster.SegmentID(seg)
}

// ObserveBatch folds one columnar batch into the counters, IO by IO: the
// reference AddRows is held to (it is how the engine filled observations
// before they were folded from the run's metric rows).
func (o *Observation) ObserveBatch(b *trace.Batch) {
	sh := &o.Shape
	for i := 0; i < b.Len(); i++ {
		ep := o.EpochOf(int(b.TimeUS[i] / 1_000_000))
		size := uint64(b.Size[i])
		seg := ep*sh.Segments + int(b.Segment[i])
		if b.Op[i] == trace.OpRead {
			o.segR[seg] += size
		} else {
			o.segW[seg] += size
		}
		vd := ep*sh.VDs + int(b.VD[i])
		o.vdBytes[vd] += size
		o.vdOps[vd]++
		o.qpOps[ep*sh.QPs+int(b.QP[i])]++
	}
}

// addBatches folds the batches into o the way a run does: through a DiTing
// tracer's full-scale metric rows.
func addBatches(o *Observation, batches ...*trace.Batch) {
	tr := diting.New(trace.SampleRate)
	for _, b := range batches {
		tr.EmitBatch(b)
	}
	o.AddRows(tr.ComputeRows(), tr.StorageRows())
}

func TestObservationCounts(t *testing.T) {
	sh := testShape()
	a := NewObservation(sh)
	b := NewObservation(sh)

	batch := trace.NewBatch(8)
	observe(batch, 3, trace.OpRead, 100, 0, 0, 1, 0)
	observe(batch, 12, trace.OpWrite, 50, 1, 1, 2, 1)
	addBatches(a, batch)

	batch2 := trace.NewBatch(8)
	observe(batch2, 24, trace.OpRead, 200, 0, 0, 1, 0)
	addBatches(b, batch2)

	if got := a.SegBytes(0, 1); got != 100 {
		t.Fatalf("SegBytes(0,1) = %v, want 100", got)
	}
	if got := a.SegBytes(1, 2); got != 50 {
		t.Fatalf("SegBytes(1,2) = %v, want 50", got)
	}
	// Epoch 2 is truncated to 5s, so 200 bytes is 40 B/s.
	if got := b.VDBps(2, 0); got != 40 {
		t.Fatalf("VDBps(2,0) = %v, want 40 (5s epoch)", got)
	}
	if got := a.VDIOPS(1, 1); got != 0.1 {
		t.Fatalf("VDIOPS(1,1) = %v, want 0.1", got)
	}
	if got := a.QPOps(0, 0); got != 1 {
		t.Fatalf("QPOps(0,0) = %v, want 1", got)
	}

	// The fingerprint covers the counters: the same rows fingerprint the
	// same, more traffic does not.
	again := NewObservation(sh)
	addBatches(again, batch)
	if a.Fingerprint() != again.Fingerprint() {
		t.Fatalf("the same rows fingerprint differently: %s vs %s", a.Fingerprint(), again.Fingerprint())
	}
	addBatches(again, batch2)
	if a.Fingerprint() == again.Fingerprint() {
		t.Fatalf("adding new counters did not change the fingerprint")
	}
}

// TestAddRowsMatchesObserveBatch is the differential test of the row fold
// and of Add, the generate-only pass's per-IO count: random traffic over a
// 3-node world, through a tracer's metric rows, through Add, and IO by IO
// through the reference, must leave every counter equal — at any thinning scale (the rows are folded unscaled; Scale
// only rescales the accessors), with worker threads rebound at epoch
// boundaries, and with an IO at the window's final instant, which both sides
// clamp into the last epoch.
func TestAddRowsMatchesObserveBatch(t *testing.T) {
	for _, scale := range []float64{1, 8, 16} {
		sh := ObsShape{
			EpochSec: 7, DurSec: 28, // four whole epochs: second 28 would be a fifth
			Segments: 24, VDs: 6, QPs: 12, WTs: 7,
			WTBase: []int{0, 2, 5}, Scale: scale, // nodes of 2, 3 and 2 worker threads
		}
		wtsOf := []int{2, 3, 2}
		rng := rand.New(rand.NewSource(int64(scale)))
		rows, ref, perIO := NewObservation(sh), NewObservation(sh), NewObservation(sh)
		tr := diting.New(trace.SampleRate)
		emit := func(b *trace.Batch) {
			tr.EmitBatch(b)
			ref.ObserveBatch(b)
			for i := 0; i < b.Len(); i++ {
				perIO.Add(b.TimeUS[i], b.Op[i], b.Size[i], b.VD[i], b.QP[i], b.Segment[i])
			}
			b.Reset()
		}
		batch := trace.NewBatch(64)
		for n := 0; n < 5000; n++ {
			if batch.Full() {
				emit(batch)
			}
			sec := rng.Intn(sh.DurSec)
			if n == 0 {
				sec = sh.DurSec // the generator can emit at the final instant
			}
			qp := rng.Intn(sh.QPs)
			vd, node := qp/2, qp%3
			op := trace.OpRead
			if rng.Intn(3) > 0 {
				op = trace.OpWrite
			}
			i := batch.Next()
			batch.TimeUS[i] = int64(sec)*1_000_000 + int64(rng.Intn(1_000_000))
			batch.Op[i] = op
			batch.Size[i] = int32(4096 * (1 + rng.Intn(64)))
			batch.VD[i] = cluster.VDID(vd)
			batch.QP[i] = cluster.QPID(qp)
			batch.Node[i] = cluster.NodeID(node)
			// A QP's worker thread is fixed within an epoch and may differ
			// across epochs, as under a control timeline's rebinds.
			batch.WT[i] = int8((qp + sec/sh.EpochSec) % wtsOf[node])
			batch.Segment[i] = cluster.SegmentID(vd*4 + rng.Intn(4))
		}
		emit(batch)
		rows.AddRows(tr.ComputeRows(), tr.StorageRows())

		if rows.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("scale %v: row-folded counters diverge from the per-IO reference", scale)
		}
		if perIO.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("scale %v: Add's counters diverge from the per-IO reference", scale)
		}
		for ep := 0; ep < sh.Epochs(); ep++ {
			for vd := 0; vd < sh.VDs; vd++ {
				if rows.VDBps(ep, vd) != ref.VDBps(ep, vd) || rows.VDIOPS(ep, vd) != ref.VDIOPS(ep, vd) {
					t.Fatalf("scale %v: VD %d epoch %d rates differ", scale, vd, ep)
				}
			}
		}
	}
}

func TestTimelineSemantics(t *testing.T) {
	tl := NewTimeline(10, 25)
	if !tl.Empty() {
		t.Fatalf("fresh timeline is not empty")
	}
	if got := tl.EpochOf(-3); got != 0 {
		t.Fatalf("EpochOf(-3) = %d, want 0", got)
	}
	if got := tl.EpochOf(24); got != 2 {
		t.Fatalf("EpochOf(24) = %d, want 2", got)
	}
	if got := tl.EpochOf(999); got != 2 {
		t.Fatalf("EpochOf(999) = %d (clamp), want 2", got)
	}

	row := []cluster.StorageNodeID{1, 0, 0, 0}
	tl.setPlacement(1, row)
	if tl.BSRow(0) != nil {
		t.Fatalf("epoch 0 has a placement row before any move")
	}
	// Forward fill: the row set at epoch 1 covers epoch 2 as well.
	for ep := 1; ep <= 2; ep++ {
		got := tl.BSRow(ep)
		if got == nil || got[0] != 1 {
			t.Fatalf("epoch %d placement row = %v, want seg0 on BS 1", ep, got)
		}
	}
	tl.markMoved(1, 0, 4)
	if !tl.MovedAt(1, 0) || tl.MovedAt(2, 0) || tl.MovedAt(1, 1) {
		t.Fatalf("moved bitset wrong: %v %v %v", tl.MovedAt(1, 0), tl.MovedAt(2, 0), tl.MovedAt(1, 1))
	}
	tl.addLend(2, 0, 2, 100, -5)
	if r := tl.LendTput(1); r != nil {
		t.Fatalf("epoch 1 lend row = %v, want nil (lends are per-epoch, not filled forward)", r)
	}
	if r := tl.LendTput(2); r == nil || r[0] != 100 {
		t.Fatalf("epoch 2 tput lend row = %v, want [100 0]", r)
	}
	if !tl.VDLends(0) || tl.VDLends(1) {
		t.Fatalf("VDLends wrong: %v %v", tl.VDLends(0), tl.VDLends(1))
	}
	if tl.Empty() {
		t.Fatalf("timeline with actions reports Empty")
	}
	if err := tl.Validate(4, 2, 2); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := tl.Validate(5, 2, 2); err == nil {
		t.Fatalf("Validate accepted a wrong segment count")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"noop", "reactive", "predictive", "predictive-holt", "predictive-arima", "predictive-gbt", "oracle"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("ByName(%s): empty policy name", name)
		}
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("ByName(nope) = %v, want unknown-policy error", err)
	}
}

// synthInput builds a 2-BS world where segment 0 is persistently hot on BS 0
// and VD 0 runs far over its throughput cap while its VM sibling VD 1 idles:
// the controller must migrate the hot segment and lend cap within the VM.
func synthInput(t *testing.T) Input {
	t.Helper()
	sh := ObsShape{
		EpochSec: 10, DurSec: 40,
		Segments: 4, VDs: 2, QPs: 2, WTs: 2,
		WTBase: []int{0}, Scale: 1,
	}
	obs := NewObservation(sh)
	batch := trace.NewBatch(64)
	for sec := 0; sec < 40; sec += 2 {
		// Segments 0 and 1 (VD 0, QP 0, WT 0) make BS 0 the hot spot,
		// 4 MB each every 2s. Two warm segments, not one: exporting one
		// of them genuinely improves the exporter, so the movability
		// margin allows the migration.
		observe(batch, sec, trace.OpWrite, 4<<20, 0, 0, 0, 0)
		observe(batch, sec, trace.OpWrite, 4<<20, 0, 0, 1, 0)
		// Segment 2 (VD 1, QP 1, WT 1) trickles.
		observe(batch, sec, trace.OpRead, 4096, 1, 1, 2, 1)
	}
	obs.ObserveBatch(batch)

	placement := cluster.NewSegmentMap(4, 2)
	for seg := 0; seg < 2; seg++ {
		placement.Assign(cluster.SegmentID(seg), 0)
	}
	for seg := 2; seg < 4; seg++ {
		placement.Assign(cluster.SegmentID(seg), 1)
	}
	return Input{
		Obs:       obs,
		Placement: placement,
		Binding:   []int8{0, 1},
		Caps: []throttle.Caps{
			{Tput: 1 << 20, IOPS: 1000}, // VD 0: 1 MB/s cap, demand ~4 MB/s
			{Tput: 64 << 20, IOPS: 1000},
		},
		VMOfVD:   []int{0, 0}, // same VM: lending is possible
		NodeOfQP: []int{0, 0},
	}
}

func TestBuildPlanMitigatesAndConserves(t *testing.T) {
	in := synthInput(t)
	plan, err := BuildPlan(Reactive{}, Config{EpochSec: 10}, in)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	var migrates, lends int
	lendSum := map[int]float64{}
	for _, d := range plan.Decisions {
		switch d.Kind {
		case DecMigrate:
			migrates++
			if d.From != 0 {
				t.Errorf("migration exports from BS %d, want 0 (the hot BS)", d.From)
			}
		case DecLend:
			lends++
			lendSum[d.Epoch] += d.TputDelta
		}
		if d.Epoch < 1 || d.Epoch >= in.Obs.Shape.Epochs() {
			t.Errorf("decision targets epoch %d outside (0, %d)", d.Epoch, in.Obs.Shape.Epochs())
		}
	}
	if migrates == 0 {
		t.Errorf("no migration decided for a persistently hot segment\n%+v", plan.Decisions)
	}
	if lends == 0 {
		t.Errorf("no lending decided for a VD at 4x its cap with an idle sibling\n%+v", plan.Decisions)
	}
	for ep, sum := range lendSum {
		if sum > 1e-6 {
			t.Errorf("epoch %d lending mints %v B/s", ep, sum)
		}
	}
	if len(plan.BSLoad) != in.Obs.Shape.Epochs() {
		t.Errorf("BSLoad has %d epochs, want %d", len(plan.BSLoad), in.Obs.Shape.Epochs())
	}

	// Determinism: the same input replans to the same decision log.
	again, err := BuildPlan(Reactive{}, Config{EpochSec: 10}, in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.LogFingerprint() != again.LogFingerprint() {
		t.Fatalf("replanning the same input changed the decision log")
	}

	// The no-op policy decides nothing and compiles an empty timeline.
	noop, err := BuildPlan(NoOp{}, Config{EpochSec: 10}, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(noop.Decisions) != 0 || !noop.Timeline.Empty() {
		t.Fatalf("noop produced %d decisions, empty=%v", len(noop.Decisions), noop.Timeline.Empty())
	}
}

func TestImbalance(t *testing.T) {
	rep := Imbalance([][]float64{
		{1, 1, 1, 1}, // perfectly balanced epoch
		{4, 0, 0, 0}, // maximally skewed epoch
	})
	if rep.PerEpoch[0] != 0 {
		t.Fatalf("balanced epoch CoV = %v, want 0", rep.PerEpoch[0])
	}
	if rep.PerEpoch[1] <= rep.PerEpoch[0] || rep.MaxCoV != rep.PerEpoch[1] {
		t.Fatalf("skewed epoch CoV %v, max %v", rep.PerEpoch[1], rep.MaxCoV)
	}
	if rep.PeakShare != 1 {
		t.Fatalf("PeakShare = %v, want 1", rep.PeakShare)
	}
	if want := (rep.PerEpoch[0] + rep.PerEpoch[1]) / 2; rep.MeanCoV != want {
		t.Fatalf("MeanCoV = %v, want %v", rep.MeanCoV, want)
	}
}

// TestBuildPlanEvacuatesDownBSes holds every policy's plan to the crash
// contract: 4 BSs and 8 segments (segment s on BS s%4, BS 0 hot), BS 1 down
// for epochs 1-3 and BS 2 down for epoch 2. No migration or evacuation may
// land on a BS that is down in its epoch, no epoch from 1 on may leave a
// segment on a down BS, and the plan must evacuate at least once.
func TestBuildPlanEvacuatesDownBSes(t *testing.T) {
	const nBS, nSegs = 4, 8
	sh := ObsShape{
		EpochSec: 10, DurSec: 50,
		Segments: nSegs, VDs: 2, QPs: 2, WTs: 2,
		WTBase: []int{0}, Scale: 1,
	}
	obs := NewObservation(sh)
	batch := trace.NewBatch(256)
	for sec := 0; sec < sh.DurSec; sec += 2 {
		for seg := 0; seg < nSegs; seg++ {
			size := int32(64 << 10)
			if seg%nBS == 0 {
				size = 4 << 20
			}
			observe(batch, sec, trace.OpWrite, size, seg%2, seg%2, seg, int8(seg%2))
		}
	}
	obs.ObserveBatch(batch)
	base := cluster.NewSegmentMap(nSegs, nBS)
	for seg := 0; seg < nSegs; seg++ {
		base.Assign(cluster.SegmentID(seg), cluster.StorageNodeID(seg%nBS))
	}
	down := func(ep, bs int) bool {
		return (bs == 1 && ep >= 1 && ep <= 3) || (bs == 2 && ep == 2)
	}
	in := Input{
		Obs:       obs,
		Placement: base,
		Binding:   []int8{0, 1},
		Caps:      []throttle.Caps{{Tput: 1 << 30, IOPS: 1e6}, {Tput: 1 << 30, IOPS: 1e6}},
		VMOfVD:    []int{0, 1},
		NodeOfQP:  []int{0, 0},
		Down:      down,
	}
	for _, name := range []string{"reactive", "predictive-holt", "oracle"} {
		pol, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := BuildPlan(pol, Config{EpochSec: sh.EpochSec}, in)
		if err != nil {
			t.Fatalf("%s: BuildPlan: %v", name, err)
		}
		for _, d := range plan.Decisions {
			if (d.Kind == DecMigrate || d.Kind == DecEvacuate) && down(d.Epoch, d.To) {
				t.Errorf("%s: %v of segment %d lands on BS %d, down in epoch %d", name, d.Kind, d.Seg, d.To, d.Epoch)
			}
		}
		for ep := 1; ep < sh.Epochs(); ep++ {
			row := plan.Timeline.BSRow(ep)
			for seg := 0; seg < nSegs; seg++ {
				bs := base.BSOf(cluster.SegmentID(seg))
				if row != nil {
					bs = row[seg]
				}
				if down(ep, int(bs)) {
					t.Errorf("%s: epoch %d leaves segment %d on down BS %d", name, ep, seg, bs)
				}
			}
		}
		if plan.Count(DecEvacuate) == 0 {
			t.Errorf("%s: no evacuation off a crashed BS\n%+v", name, plan.Decisions)
		}
		t.Logf("%s: %d evacuations, %d migrations", name, plan.Count(DecEvacuate), plan.Count(DecMigrate))
	}
}
