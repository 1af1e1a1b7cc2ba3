package control

import (
	"fmt"
	"math"

	"ebslab/internal/balancer"
	"ebslab/internal/cluster"
	"ebslab/internal/throttle"
	"ebslab/internal/wire"
)

// Config sets the controller's cadence.
type Config struct {
	// EpochSec is the decision cadence (also the observation epoch).
	EpochSec int
}

// DefaultEpochSec is the control cadence for a run of durSec seconds when the
// caller names none: an eighth of the window, at least one second — eight
// decisions per run, whatever its length.
func DefaultEpochSec(durSec int) int {
	return max(durSec/8, 1)
}

// The controller's actuation thresholds. Migration planning uses the offline
// balancer's (balancer.ExporterThreshold, MigrateFraction, ImprovementMargin:
// Algorithm 1, Appendix A) so a controlled run is comparable to the §6
// experiments; these three are the online analogues of §5 and §4.
const (
	// lendRate caps how much of a VD's forecast cap headroom its VM siblings
	// may borrow (§5, Appendix B's bounded lending rate).
	lendRate = 0.5
	// rebindTrigger is the max/mean ratio of forecast per-WT load on a node
	// above which the hottest QP is rebound to the coldest WT (§4).
	rebindTrigger = 1.5
)

// MigrationPenaltyUS is the extra backend-network latency an IO pays when it
// touches a segment during the epoch the segment lands on its new BS (data
// movement competes with foreground traffic).
const MigrationPenaltyUS = 150

// Input is the fleet context the controller plans against. Everything is a
// pure function of the topology and the observe pass — no scheduling state —
// so BuildPlan is deterministic for a given (policy, config, input).
type Input struct {
	// Obs is the observe-pass telemetry.
	Obs *Observation
	// Placement is the base segment→BS map (cloned, never mutated).
	Placement *cluster.SegmentMap
	// Binding is the base per-QP node-local worker-thread binding.
	Binding []int8
	// Caps are the per-VD nominal throttle subscriptions.
	Caps []throttle.Caps
	// VMOfVD maps each VD to its VM; lending stays within a VM's disks.
	VMOfVD []int
	// NodeOfQP maps each QP to its compute node.
	NodeOfQP []int
	// Down reports whether BS bs is crashed at the instant epoch ep begins;
	// the controller evacuates segments off BSes that are down entering the
	// epoch it is planning. Nil means no fault information. It is the one
	// input read for the planned epoch rather than the past, and that is
	// allowed: a crash is known at the epoch boundary, when the BS stops
	// answering, so it is an input to the controller, not traffic it must
	// forecast. BuildPlan reads no Down beyond the epoch it plans
	// (TestPlansAreCausal in internal/ebs).
	Down func(ep, bs int) bool
}

func (in Input) validate() error {
	if in.Obs == nil {
		return fmt.Errorf("control: Input.Obs is nil")
	}
	sh := in.Obs.Shape
	if err := sh.Validate(); err != nil {
		return err
	}
	if in.Placement == nil {
		return fmt.Errorf("control: Input.Placement is nil")
	}
	if in.Placement.Len() != sh.Segments {
		return fmt.Errorf("control: placement has %d segments, observation %d", in.Placement.Len(), sh.Segments)
	}
	if len(in.Binding) != sh.QPs {
		return fmt.Errorf("control: binding has %d QPs, observation %d", len(in.Binding), sh.QPs)
	}
	if len(in.Caps) != sh.VDs {
		return fmt.Errorf("control: caps for %d VDs, observation %d", len(in.Caps), sh.VDs)
	}
	if len(in.VMOfVD) != sh.VDs {
		return fmt.Errorf("control: VMOfVD for %d VDs, observation %d", len(in.VMOfVD), sh.VDs)
	}
	if len(in.NodeOfQP) != sh.QPs {
		return fmt.Errorf("control: NodeOfQP for %d QPs, observation %d", len(in.NodeOfQP), sh.QPs)
	}
	return nil
}

// DecisionKind names the mitigation lever a decision pulls.
type DecisionKind uint8

// Decision kinds.
const (
	DecMigrate DecisionKind = iota
	DecEvacuate
	DecLend
	DecRebind
)

func (k DecisionKind) String() string {
	switch k {
	case DecMigrate:
		return "migrate"
	case DecEvacuate:
		return "evacuate"
	case DecLend:
		return "lend"
	case DecRebind:
		return "rebind"
	}
	return fmt.Sprintf("decision-%d", uint8(k))
}

// Decision is one entry of the control plane's decision log. Epoch is the
// epoch the action takes effect in (the controller decided it at the end of
// Epoch-1, seeing only observations <= Epoch-1).
type Decision struct {
	Epoch int
	Kind  DecisionKind

	// Migrate/evacuate: segment Seg moves From→To.
	Seg, From, To int

	// Lend: VD's caps shift by the deltas for this epoch only (negative:
	// lent to a VM sibling; positive: borrowed).
	VD                   int
	TputDelta, IOPSDelta float64

	// Rebind: QP is bound to node-local worker thread WT.
	QP, WT int

	// Forecast is the predicted value that motivated the decision (the
	// exporter's BS load, the borrower's demand, the hot WT's load).
	Forecast float64
}

// Plan is a compiled control run: the decision log, the timeline the engine
// applies, and the per-epoch per-BS load measured under the placement in
// effect — the series the evaluation harness scores imbalance on.
type Plan struct {
	Policy    string
	Decisions []Decision
	Timeline  *Timeline
	// BSLoad[ep][bs] is epoch ep's bytes on bs under the live placement.
	BSLoad [][]float64
}

// Count returns how many decisions of one kind the plan logged.
func (p *Plan) Count(kind DecisionKind) int {
	n := 0
	for _, d := range p.Decisions {
		if d.Kind == kind {
			n++
		}
	}
	return n
}

// LogFingerprint digests the decision log in canonical order; two plans
// fingerprint identically iff they made the same decisions. This is the
// byte-stability witness the worker-count invariance test pins.
func (p *Plan) LogFingerprint() string {
	h := new(wire.Digest)
	h.U64(uint64(len(p.Decisions)))
	for _, d := range p.Decisions {
		h.I64(int64(d.Epoch))
		h.I64(int64(d.Kind))
		h.I64(int64(d.Seg))
		h.I64(int64(d.From))
		h.I64(int64(d.To))
		h.I64(int64(d.VD))
		h.F64(d.TputDelta)
		h.F64(d.IOPSDelta)
		h.I64(int64(d.QP))
		h.I64(int64(d.WT))
		h.F64(d.Forecast)
	}
	return h.Sum()
}

// BuildPlan replays the observation epoch by epoch through the policy and
// compiles the resulting timeline. At the end of each epoch e the policy
// forecasts epoch e+1 from histories [0..e] only (the oracle policy is the
// single, explicit exception), and the controller turns forecasts into
// migrations, evacuations, lending grants and rebinds using the same
// threshold machinery for every policy — so plans differ across policies
// exactly as far as their forecasts do. The cadence is in.Obs.Shape's
// EpochSec; cfg's is not read.
func BuildPlan(pol Policy, cfg Config, in Input) (*Plan, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	sh := in.Obs.Shape

	nEpochs := sh.Epochs()
	nBS := in.Placement.NumBS()
	live := in.Placement.Clone()
	binding := append([]int8(nil), in.Binding...)
	wtCount, err := wtCounts(sh)
	if err != nil {
		return nil, err
	}

	plan := &Plan{
		Policy:   pol.Name(),
		Timeline: NewTimeline(sh.EpochSec, sh.DurSec),
		BSLoad:   make([][]float64, 0, nEpochs),
	}
	_, noop := pol.(NoOp)

	// Rolling histories, one slice per entity, appended as epochs replay.
	bsHist := histories(nBS, nEpochs)
	segHist := histories(sh.Segments, nEpochs)
	wtHist := histories(sh.WTs, nEpochs)
	vdBHist := histories(sh.VDs, nEpochs)
	vdIHist := histories(sh.VDs, nEpochs)

	fc := func(kind SeriesKind, id int, hist []float64) float64 {
		f := pol.Forecast(kind, id, hist)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return hist[len(hist)-1]
		}
		if f < 0 {
			return 0
		}
		return f
	}

	for e := 0; e < nEpochs; e++ {
		// Measure epoch e under the live placement and binding.
		bsLoad := make([]float64, nBS)
		for seg := 0; seg < sh.Segments; seg++ {
			v := in.Obs.SegBytes(e, seg)
			segHist[seg] = append(segHist[seg], v)
			bsLoad[live.BSOf(cluster.SegmentID(seg))] += v
		}
		plan.BSLoad = append(plan.BSLoad, bsLoad)
		wtLoad := wtLoads(in, sh, binding, e)
		for b := 0; b < nBS; b++ {
			bsHist[b] = append(bsHist[b], bsLoad[b])
		}
		for w := 0; w < sh.WTs; w++ {
			wtHist[w] = append(wtHist[w], wtLoad[w])
		}
		for vd := 0; vd < sh.VDs; vd++ {
			vdBHist[vd] = append(vdBHist[vd], in.Obs.VDBps(e, vd))
			vdIHist[vd] = append(vdIHist[vd], in.Obs.VDIOPS(e, vd))
		}

		target := e + 1
		if noop || target >= nEpochs {
			continue
		}
		if fa, ok := pol.(FutureAware); ok {
			fa.SetFuture(futureOf(in, sh, live, binding, target))
		}
		down := func(bs int) bool { return in.Down != nil && in.Down(target, bs) }

		// Forecast per-BS load for the target epoch, and per-segment load
		// for segment choice: a policy that foresees a BS heating up must
		// also foresee WHICH segments carry the heat, or it would export
		// the segments that were hot last epoch while the real culprit
		// stays behind (stale attribution — exactly the churn that makes
		// acting early worse than acting late).
		fBS := make([]float64, nBS)
		for b := 0; b < nBS; b++ {
			fBS[b] = fc(SeriesBS, b, bsHist[b])
		}
		fSeg := make([]float64, sh.Segments)
		for seg := 0; seg < sh.Segments; seg++ {
			fSeg[seg] = fc(SeriesSeg, seg, segHist[seg])
		}

		anyMoves := false
		move := func(seg int, from, to cluster.StorageNodeID, kind DecisionKind, forecast float64) {
			live.Move(cluster.SegmentID(seg), to)
			plan.Timeline.markMoved(target, seg, sh.Segments)
			plan.Decisions = append(plan.Decisions, Decision{
				Epoch: target, Kind: kind,
				Seg: seg, From: int(from), To: int(to), Forecast: forecast,
			})
			v := fSeg[seg]
			fBS[from] -= v
			fBS[to] += v
			anyMoves = true
		}

		// 1. Evacuate BSes that are down entering the target epoch: their
		// IOs would otherwise eat the full crash penalty all epoch.
		for b := 0; b < nBS; b++ {
			if !down(b) {
				continue
			}
			for _, seg := range live.SegmentsOn(cluster.StorageNodeID(b)) {
				dst := coldestBS(fBS, down, b)
				if dst < 0 {
					break // every other BS is down too; nothing to do
				}
				move(int(seg), cluster.StorageNodeID(b), cluster.StorageNodeID(dst), DecEvacuate, fBS[b])
			}
		}

		// 2. Threshold migrations off forecast-hot exporters, mirroring
		// balancer.balancePass but driven by predicted load.
		mean := 0.0
		for _, v := range fBS {
			mean += v
		}
		mean /= float64(nBS)
		if mean > 0 {
			for b := 0; b < nBS; b++ {
				if down(b) || fBS[b] <= balancer.ExporterThreshold*mean {
					continue
				}
				exporterForecast := fBS[b]
				minLoad := math.Inf(1)
				for o := 0; o < nBS; o++ {
					if o != b && !down(o) && fBS[o] < minLoad {
						minLoad = fBS[o]
					}
				}
				budget := balancer.MigrateFraction * mean
				moved := 0.0
				for _, seg := range hotSegments(live, fSeg, cluster.StorageNodeID(b)) {
					if moved >= budget {
						break
					}
					v := fSeg[seg]
					if v <= 0 {
						break
					}
					// Movability: landing on the coldest BS must genuinely
					// improve on the exporter, or the hotspot just relocates.
					if minLoad+v > balancer.ImprovementMargin*exporterForecast {
						continue
					}
					dst := coldestBS(fBS, down, b)
					if dst < 0 {
						break
					}
					move(int(seg), cluster.StorageNodeID(b), cluster.StorageNodeID(dst), DecMigrate, exporterForecast)
					moved += v
				}
			}
		}
		if anyMoves {
			row := make([]cluster.StorageNodeID, sh.Segments)
			for seg := 0; seg < sh.Segments; seg++ {
				row[seg] = live.BSOf(cluster.SegmentID(seg))
			}
			plan.Timeline.setPlacement(target, row)
		}

		// 3. Throttle lending inside each VM: siblings with forecast
		// headroom lend a bounded slice of it to siblings forecast over cap.
		planLending(plan, in, sh, fc, vdBHist, vdIHist, target)

		// 4. QP rebinding: on nodes whose forecast WT load is lopsided,
		// move the hottest QP of the hottest WT to the coldest WT.
		binding = planRebinds(plan, in, sh, fc, wtHist, segQPOps(in, sh, e), binding, wtCount, target)
	}
	return plan, nil
}

// histories allocates n empty series with room for the full window.
func histories(n, epochs int) [][]float64 {
	h := make([][]float64, n)
	for i := range h {
		h[i] = make([]float64, 0, epochs)
	}
	return h
}

// wtCounts derives each node's worker-thread count from the shape's bases.
func wtCounts(sh ObsShape) ([]int, error) {
	counts := make([]int, len(sh.WTBase))
	for n := range sh.WTBase {
		end := sh.WTs
		if n+1 < len(sh.WTBase) {
			end = sh.WTBase[n+1]
		}
		counts[n] = end - sh.WTBase[n]
		if counts[n] <= 0 {
			return nil, fmt.Errorf("control: node %d has %d worker threads in shape", n, counts[n])
		}
	}
	return counts, nil
}

// wtLoads folds epoch e's per-QP ops through the live binding into global
// per-WT loads. This deliberately ignores the observation's own WT column:
// planning must reflect the binding the controller has already changed.
func wtLoads(in Input, sh ObsShape, binding []int8, e int) []float64 {
	load := make([]float64, sh.WTs)
	for qp := 0; qp < sh.QPs; qp++ {
		load[sh.WTBase[in.NodeOfQP[qp]]+int(binding[qp])] += in.Obs.QPOps(e, qp)
	}
	return load
}

// segQPOps returns epoch e's per-QP op counts (rebind tie-breaking input).
func segQPOps(in Input, sh ObsShape, e int) []float64 {
	ops := make([]float64, sh.QPs)
	for qp := 0; qp < sh.QPs; qp++ {
		ops[qp] = in.Obs.QPOps(e, qp)
	}
	return ops
}

// futureOf builds the oracle's truth lookup: the target epoch's real values
// under the live placement and binding, assuming no further actuation.
func futureOf(in Input, sh ObsShape, live *cluster.SegmentMap, binding []int8, target int) func(SeriesKind, int) float64 {
	nextBS := make([]float64, live.NumBS())
	for seg := 0; seg < sh.Segments; seg++ {
		nextBS[live.BSOf(cluster.SegmentID(seg))] += in.Obs.SegBytes(target, seg)
	}
	nextWT := wtLoads(in, sh, binding, target)
	return func(kind SeriesKind, id int) float64 {
		switch kind {
		case SeriesBS:
			return nextBS[id]
		case SeriesSeg:
			return in.Obs.SegBytes(target, id)
		case SeriesVDBps:
			return in.Obs.VDBps(target, id)
		case SeriesVDIOPS:
			return in.Obs.VDIOPS(target, id)
		case SeriesWT:
			return nextWT[id]
		}
		return 0
	}
}

// coldestBS returns the up BS with the least forecast load, excluding
// exclude; -1 if every candidate is down.
func coldestBS(fBS []float64, down func(int) bool, exclude int) int {
	best, bestLoad := -1, math.Inf(1)
	for b := range fBS {
		if b == exclude || down(b) {
			continue
		}
		if fBS[b] < bestLoad {
			best, bestLoad = b, fBS[b]
		}
	}
	return best
}

// hotSegments returns bs's segments ordered hottest-first (ties: lowest ID)
// by segLoad, the per-segment bytes forecast for the epoch being planned.
func hotSegments(live *cluster.SegmentMap, segLoad []float64, bs cluster.StorageNodeID) []cluster.SegmentID {
	segs := live.SegmentsOn(bs)
	ordered := append([]cluster.SegmentID(nil), segs...)
	// Insertion sort keeps the tie-break (stable on ascending IDs) explicit
	// and avoids pulling in sort.Slice's reflection for tiny slices.
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && segLoad[ordered[j]] > segLoad[ordered[j-1]]; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	return ordered
}

// planLending emits per-VM lending grants for the target epoch.
func planLending(plan *Plan, in Input, sh ObsShape, fc func(SeriesKind, int, []float64) float64,
	vdBHist, vdIHist [][]float64, target int) {
	// Group VDs by VM, VM order ascending, VDs ascending within a group.
	maxVM := -1
	for _, vm := range in.VMOfVD {
		if vm > maxVM {
			maxVM = vm
		}
	}
	groups := make([][]int, maxVM+1)
	for vd, vm := range in.VMOfVD {
		groups[vm] = append(groups[vm], vd)
	}
	const eps = 1e-6
	for _, group := range groups {
		if len(group) < 2 {
			continue
		}
		var dT, dI map[int]float64
		for dim := 0; dim < 2; dim++ {
			cap_ := func(vd int) float64 {
				if dim == 0 {
					return in.Caps[vd].Tput
				}
				return in.Caps[vd].IOPS
			}
			forecast := func(vd int) float64 {
				if dim == 0 {
					return fc(SeriesVDBps, vd, vdBHist[vd])
				}
				return fc(SeriesVDIOPS, vd, vdIHist[vd])
			}
			deltas := lendWithin(group, cap_, forecast)
			if dim == 0 {
				dT = deltas
			} else {
				dI = deltas
			}
		}
		for _, vd := range group {
			t, i := dT[vd], dI[vd]
			if math.Abs(t) < eps && math.Abs(i) < eps {
				continue
			}
			plan.Decisions = append(plan.Decisions, Decision{
				Epoch: target, Kind: DecLend, VD: vd,
				TputDelta: t, IOPSDelta: i,
				Forecast: fc(SeriesVDBps, vd, vdBHist[vd]),
			})
			plan.Timeline.addLend(target, vd, sh.VDs, t, i)
		}
	}
}

// lendWithin computes one dimension's grant deltas for a VM group: greedy,
// deterministic (ascending VD order on both sides), and exactly conserving —
// every borrowed unit is debited from a sibling's headroom.
func lendWithin(group []int, cap_, forecast func(int) float64) map[int]float64 {
	deltas := make(map[int]float64)
	for _, borrower := range group {
		c := cap_(borrower)
		if c <= 0 {
			continue
		}
		need := forecast(borrower) - c
		if need <= 0 {
			continue
		}
		for _, lender := range group {
			if need <= 0 {
				break
			}
			if lender == borrower {
				continue
			}
			lc := cap_(lender)
			headroom := lendRate*(lc-forecast(lender)) + deltas[lender]
			if lc <= 0 || headroom <= 0 {
				continue
			}
			grant := math.Min(need, headroom)
			deltas[lender] -= grant
			deltas[borrower] += grant
			need -= grant
		}
	}
	return deltas
}

// planRebinds emits at most one QP rebind per node for the target epoch and
// returns the (possibly replaced) binding row.
func planRebinds(plan *Plan, in Input, sh ObsShape, fc func(SeriesKind, int, []float64) float64,
	wtHist [][]float64, qpOps []float64, binding []int8, wtCount []int, target int) []int8 {
	mutated := false
	for n := range sh.WTBase {
		c := wtCount[n]
		if c < 2 {
			continue
		}
		base := sh.WTBase[n]
		fW := make([]float64, c)
		sum := 0.0
		for w := 0; w < c; w++ {
			fW[w] = fc(SeriesWT, base+w, wtHist[base+w])
			sum += fW[w]
		}
		mean := sum / float64(c)
		if mean <= 0 {
			continue
		}
		hot, cold := 0, 0
		for w := 1; w < c; w++ {
			if fW[w] > fW[hot] {
				hot = w
			}
			if fW[w] < fW[cold] {
				cold = w
			}
		}
		if hot == cold || fW[hot]/mean <= rebindTrigger {
			continue
		}
		// Hottest QP currently bound to the hot WT on this node.
		bestQP, bestOps := -1, 0.0
		for qp := 0; qp < sh.QPs; qp++ {
			if in.NodeOfQP[qp] != n || int(binding[qp]) != hot {
				continue
			}
			if bestQP < 0 || qpOps[qp] > bestOps {
				bestQP, bestOps = qp, qpOps[qp]
			}
		}
		if bestQP < 0 || bestOps <= 0 {
			continue
		}
		if !mutated {
			binding = append([]int8(nil), binding...)
			mutated = true
		}
		binding[bestQP] = int8(cold)
		plan.Decisions = append(plan.Decisions, Decision{
			Epoch: target, Kind: DecRebind, QP: bestQP, WT: cold, Forecast: fW[hot],
		})
	}
	if mutated {
		plan.Timeline.setBinding(target, binding)
	}
	return binding
}
