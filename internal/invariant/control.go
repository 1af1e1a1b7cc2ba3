package invariant

import (
	"math"

	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/throttle"
)

// CheckControlActuation holds a control plan's decision log and its compiled
// timeline — what the engine applies — to the actuation conservation laws,
// so no action reaches a dataset without a decision and no decision goes
// unapplied:
//
//   - decision epochs are nondecreasing and inside (0, epochs) — the
//     controller cannot act in the epoch it is still observing;
//   - replaying the decisions against the base placement reproduces every
//     non-nil timeline placement row exactly — and a nil row implies no
//     migration had landed yet;
//   - the per-epoch moved bitset marks exactly the decided segments;
//   - lending conserves: each epoch's summed cap deltas never exceed zero in
//     either dimension, the timeline's lend rows equal the decided deltas,
//     and no VD's effective cap goes negative;
//   - rebind decisions replay to every non-nil binding row.
func CheckControlActuation(rep *Report, plan *control.Plan, base *cluster.SegmentMap, binding []int8, caps []throttle.Caps) {
	const law = "conserve/control"
	tl := plan.Timeline
	if tl == nil {
		rep.Addf(law, "plan has no timeline")
		return
	}
	nEpochs := tl.Epochs()
	nSeg := base.Len()
	const tol = 1e-9

	// Epoch monotonicity over the whole log.
	for i := 1; i < len(plan.Decisions); i++ {
		if plan.Decisions[i].Epoch < plan.Decisions[i-1].Epoch {
			rep.Addf(law, "decision %d (epoch %d) logged after epoch %d", i, plan.Decisions[i].Epoch, plan.Decisions[i-1].Epoch)
			return
		}
	}

	placement := base.Clone()
	bind := append([]int8(nil), binding...)
	decIdx := 0
	anyMove, anyRebind := false, false

	for ep := 1; ep < nEpochs; ep++ {
		movedNow := make(map[int]bool)
		lendT := make(map[int]float64)
		lendI := make(map[int]float64)
		var sumT, sumI, magT, magI float64

		for decIdx < len(plan.Decisions) && plan.Decisions[decIdx].Epoch == ep {
			d := plan.Decisions[decIdx]
			decIdx++
			switch d.Kind {
			case control.DecMigrate, control.DecEvacuate:
				if d.Seg < 0 || d.Seg >= nSeg {
					rep.Addf(law, "epoch %d: decision moves unknown segment %d", ep, d.Seg)
					continue
				}
				if got := placement.BSOf(cluster.SegmentID(d.Seg)); int(got) != d.From {
					rep.Addf(law, "epoch %d: decision claims segment %d on BS %d, replay has it on %d", ep, d.Seg, d.From, got)
				}
				if d.To < 0 || d.To >= placement.NumBS() || d.To == d.From {
					rep.Addf(law, "epoch %d: segment %d decided onto invalid BS %d (from %d)", ep, d.Seg, d.To, d.From)
					continue
				}
				placement.Move(cluster.SegmentID(d.Seg), cluster.StorageNodeID(d.To))
				movedNow[d.Seg] = true
				anyMove = true
			case control.DecLend:
				if d.VD < 0 || d.VD >= len(caps) {
					rep.Addf(law, "epoch %d: lending decision for unknown VD %d", ep, d.VD)
					continue
				}
				lendT[d.VD] += d.TputDelta
				lendI[d.VD] += d.IOPSDelta
				sumT += d.TputDelta
				sumI += d.IOPSDelta
				magT += math.Abs(d.TputDelta)
				magI += math.Abs(d.IOPSDelta)
				if caps[d.VD].Tput+d.TputDelta < -tol || caps[d.VD].IOPS+d.IOPSDelta < -tol {
					rep.Addf(law, "epoch %d: VD %d lending delta (%v B/s, %v IOPS) drives its cap (%v, %v) negative",
						ep, d.VD, d.TputDelta, d.IOPSDelta, caps[d.VD].Tput, caps[d.VD].IOPS)
				}
			case control.DecRebind:
				if d.QP < 0 || d.QP >= len(bind) || d.WT < 0 || d.WT > 127 {
					rep.Addf(law, "epoch %d: rebind of QP %d to WT %d out of range", ep, d.QP, d.WT)
					continue
				}
				bind[d.QP] = int8(d.WT)
				anyRebind = true
			default:
				rep.Addf(law, "epoch %d: unknown decision kind %d", ep, d.Kind)
			}
		}

		// Grants must never mint capacity: the fleet-wide sum of each
		// epoch's deltas is at most zero (borrowed cap is debited somewhere).
		if sumT > tol*(1+magT) {
			rep.Addf(law, "epoch %d: throughput lending mints %v B/s of cap", ep, sumT)
		}
		if sumI > tol*(1+magI) {
			rep.Addf(law, "epoch %d: IOPS lending mints %v ops/s of cap", ep, sumI)
		}

		// Timeline rows must be exactly the decisions, no more, no less.
		if row := tl.BSRow(ep); row != nil {
			for seg := 0; seg < nSeg; seg++ {
				if row[seg] != placement.BSOf(cluster.SegmentID(seg)) {
					rep.Addf(law, "epoch %d: timeline places segment %d on BS %d, decision replay on %d",
						ep, seg, row[seg], placement.BSOf(cluster.SegmentID(seg)))
					break
				}
			}
		} else if anyMove {
			rep.Addf(law, "epoch %d: migrations have landed but the timeline placement row is nil", ep)
		}
		for seg := 0; seg < nSeg; seg++ {
			if tl.MovedAt(ep, seg) != movedNow[seg] {
				rep.Addf(law, "epoch %d: moved bitset says %v for segment %d, decisions say %v",
					ep, tl.MovedAt(ep, seg), seg, movedNow[seg])
			}
		}
		checkLendRow(rep, law, ep, "throughput", tl.LendTput(ep), lendT, len(caps))
		checkLendRow(rep, law, ep, "IOPS", tl.LendIOPS(ep), lendI, len(caps))
		if row := tl.WTRow(ep); row != nil {
			for qp := range row {
				if row[qp] != bind[qp] {
					rep.Addf(law, "epoch %d: timeline binds QP %d to WT %d, decision replay to %d", ep, qp, row[qp], bind[qp])
					break
				}
			}
		} else if anyRebind {
			rep.Addf(law, "epoch %d: rebinds have landed but the timeline binding row is nil", ep)
		}
	}

	for decIdx < len(plan.Decisions) {
		d := plan.Decisions[decIdx]
		rep.Addf(law, "decision %d targets epoch %d outside (0, %d)", decIdx, d.Epoch, nEpochs)
		decIdx++
	}
}

// checkLendRow compares one epoch's timeline lend row against the deltas the
// decisions decided. A nil row means all-zero.
func checkLendRow(rep *Report, law string, ep int, dim string, row []float64, want map[int]float64, nVDs int) {
	const tol = 1e-9
	for vd := 0; vd < nVDs; vd++ {
		var got float64
		if row != nil {
			got = row[vd]
		}
		if math.Abs(got-want[vd]) > tol*(1+math.Abs(want[vd])) {
			rep.Addf(law, "epoch %d: timeline %s delta for VD %d is %v, decisions say %v", ep, dim, vd, got, want[vd])
		}
	}
}
