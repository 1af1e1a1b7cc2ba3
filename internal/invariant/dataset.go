package invariant

import (
	"math"

	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// Artifacts bundles everything one simulation run produced, for checking.
// Dataset is required; Emission is optional (without it the workload-layer
// conservation law is skipped, the rest still run).
type Artifacts struct {
	Dataset *trace.Dataset
	// Emission is the workload-layer ground truth (engine counters or an
	// independent CountEmission recount).
	Emission *Emission
	// EventSampleEvery is the event-thinning factor the run used; metric
	// rows were scaled back up by it, so emission comparisons scale the
	// ground truth by the same factor.
	EventSampleEvery int
	// TraceSampleEvery is the DiTing sampling rate of the run. When 1,
	// every IO was traced and the per-IO record counts become a third,
	// independently countable ledger.
	TraceSampleEvery int
	// Control is the mitigation timeline an actuated run applied, nil for
	// uncontrolled runs. The placement laws consult it: a record emitted in
	// an epoch whose timeline row moved the segment must carry the
	// timeline's BS, not the static placement's.
	Control *control.Timeline
}

// expectedBS is the storage node the run's placement assigns to seg at sec:
// the control timeline's epoch row when one is in force, the static segment
// map otherwise.
func (a *Artifacts) expectedBS(sec int, seg cluster.SegmentID) cluster.StorageNodeID {
	if a.Control != nil {
		if row := a.Control.BSRow(a.Control.EpochOf(sec)); row != nil {
			return row[seg]
		}
	}
	return a.Dataset.Seg2BS.BSOf(seg)
}

func (a *Artifacts) factor() float64 {
	if a.EventSampleEvery > 1 {
		return float64(a.EventSampleEvery)
	}
	return 1
}

// relEq compares two float64s with a relative tolerance. The conservation
// sums are integer-valued (exact in float64 below 2^53), so the tolerance
// only shields against pathological magnitudes.
func relEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// owner is who an IO belongs to beyond its disk, as a record and a metric
// row name it: the VM, its user and DC, and its compute node, which a
// storage row does not name.
type owner struct {
	vm   cluster.VMID
	user cluster.UserID
	dc   cluster.DCID
	node cluster.NodeID
}

// disk is what the laws read of a disk from the topology: its owner and the
// worker-thread count of its node.
type disk struct {
	owner   owner
	workers int
}

// disksOf returns every disk of top, indexed by VD.
func disksOf(top *cluster.Topology) []disk {
	out := make([]disk, len(top.VDs))
	for i := range top.VDs {
		vm := &top.VMs[top.VDs[i].VM]
		node := &top.Nodes[vm.Node]
		out[i] = disk{owner{top.VDs[i].VM, vm.User, node.DC, vm.Node}, node.WorkerNum}
	}
	return out
}

func ownsQP(top *cluster.Topology, vd cluster.VDID, qp cluster.QPID) bool {
	return qp >= 0 && int(qp) < len(top.QPs) && top.QPs[qp].VD == vd
}

func ownsSegment(top *cluster.Topology, vd cluster.VDID, seg cluster.SegmentID) bool {
	return seg >= 0 && int(seg) < len(top.Segments) && top.Segments[seg].VD == vd
}

// checkTrace walks the per-IO records once. Each record is held to
// trace/integrity: every field names a real entity and agrees with the
// topology (the QP and segment belong to the disk, the segment covers the
// offset, the storage node is the one the placement assigns, the owner
// fields are the disk's). With its predecessor it is held to
// trace/canonical-order, the merge's contract: records sorted by (TimeUS,
// VD) with trace IDs 1..N in that order, which is what makes a trace
// byte-identical across worker counts. checkTrace returns each disk's record
// count, conserve/workload's third ledger under full tracing.
func checkTrace(rep *Report, a *Artifacts, disks []disk) []int64 {
	const law, order = "trace/integrity", "trace/canonical-order"
	top := a.Dataset.Topology
	winUS := int64(a.Dataset.DurationSec) * 1_000_000
	perVD := make([]int64, len(top.VDs))
	recs := a.Dataset.Trace
	for i := range recs {
		r := &recs[i]
		if r.TraceID != uint64(i+1) {
			rep.Addf(order, "record %d: trace ID %d, want %d", i, r.TraceID, i+1)
		}
		if i > 0 {
			if p := &recs[i-1]; p.TimeUS > r.TimeUS || (p.TimeUS == r.TimeUS && p.VD > r.VD) {
				rep.Addf(order, "records %d-%d out of (time, VD) order: (%d, %d) then (%d, %d)",
					i-1, i, p.TimeUS, p.VD, r.TimeUS, r.VD)
			}
		}
		if r.VD < 0 || int(r.VD) >= len(top.VDs) {
			rep.Addf(law, "record %d: VD %d out of range", i, r.VD)
			continue
		}
		perVD[r.VD]++
		vd := &top.VDs[r.VD]
		if !ownsQP(top, r.VD, r.QP) {
			rep.Addf(law, "record %d: QP %d not owned by VD %d", i, r.QP, r.VD)
		}
		if !ownsSegment(top, r.VD, r.Segment) {
			rep.Addf(law, "record %d: segment %d not owned by VD %d", i, r.Segment, r.VD)
		} else if bs := a.expectedBS(int(r.TimeUS/1_000_000), r.Segment); bs != r.Storage {
			rep.Addf(law, "record %d: storage node %d but placement maps segment %d to %d", i, r.Storage, r.Segment, bs)
		}
		d := &disks[r.VD]
		if got := (owner{r.VM, r.User, r.DC, r.Node}); got != d.owner {
			rep.Addf(law, "record %d: owner %+v but VD %d's is %+v", i, got, r.VD, d.owner)
		}
		if r.WT < 0 || int(r.WT) >= d.workers {
			rep.Addf(law, "record %d: WT %d outside node %d's %d worker threads", i, r.WT, d.owner.node, d.workers)
		}
		if r.TimeUS < 0 || r.TimeUS >= winUS {
			rep.Addf(law, "record %d: time %dus outside window [0, %dus)", i, r.TimeUS, winUS)
		}
		if r.Size <= 0 || int64(r.Size)%workload.SectorSize != 0 {
			rep.Addf(law, "record %d: size %d not a positive sector multiple", i, r.Size)
		}
		if r.Offset < 0 || r.Offset%workload.SectorSize != 0 || r.Offset+int64(r.Size) > vd.Capacity {
			rep.Addf(law, "record %d: span [%d, %d) outside VD %d's %d-byte space or misaligned",
				i, r.Offset, r.Offset+int64(r.Size), r.VD, vd.Capacity)
		} else if seg := top.SegmentOfOffset(r.VD, r.Offset); seg != r.Segment {
			rep.Addf(law, "record %d: offset %d lies in segment %d, record says %d", i, r.Offset, seg, r.Segment)
		}
		for st, l := range r.Latency {
			if !(l >= 0) { // negative or NaN
				rep.Addf(law, "record %d: stage %d latency %v invalid", i, st, l)
			}
		}
	}
	return perVD
}

// vdTotals sums one disk's metric rows: read and write bytes/s and ops/s,
// and how many rows they came from.
type vdTotals struct {
	rB, wB, rOps, wOps float64
	rows               int
}

func (t *vdTotals) add(m *trace.MetricRow) {
	t.rB += m.ReadBps
	t.wB += m.WriteBps
	t.rOps += m.ReadIOPS
	t.wOps += m.WriteIOPS
	t.rows++
}

// checkRow holds row i of a metric domain to metric/row-sanity: its domain,
// finite non-negative rates and some traffic, an in-window second, a unit
// (the QP of a compute row, the segment of a storage row) that belongs to
// the row's disk, the storage node the placement assigns, owner fields that
// are the disk's, and a key (second, unit) above its predecessor's — the
// canonical order, which leaves no room for a duplicate key. It reports
// whether the row names a disk of the topology, so it can be counted.
func checkRow(rep *Report, a *Artifacts, disks []disk, domain trace.Domain, rows []trace.MetricRow, i int) bool {
	const law = "metric/row-sanity"
	compute := domain == trace.DomainCompute
	kind, unit := "storage row", "segment"
	if compute {
		kind, unit = "compute row", "QP"
	}
	key := func(m *trace.MetricRow) [2]int32 {
		if compute {
			return [2]int32{m.Sec, int32(m.QP)}
		}
		return [2]int32{m.Sec, int32(m.Segment)}
	}
	m := &rows[i]
	if m.Domain != domain {
		rep.Addf(law, "%s %d: domain %v", kind, i, m.Domain)
	}
	for _, v := range [...]float64{m.ReadBps, m.WriteBps, m.ReadIOPS, m.WriteIOPS} {
		if !(v >= 0) || math.IsInf(v, 1) { // negative, NaN or infinite
			rep.Addf(law, "%s %d: invalid rate %v", kind, i, v)
		}
	}
	if m.Bps() == 0 && m.IOPS() == 0 {
		rep.Addf(law, "%s %d: empty row (no traffic)", kind, i)
	}
	if m.Sec < 0 || int(m.Sec) >= a.Dataset.DurationSec {
		rep.Addf(law, "%s %d: second %d outside window [0, %d)", kind, i, m.Sec, a.Dataset.DurationSec)
	}
	if k := key(m); i > 0 {
		if pk := key(&rows[i-1]); pk == k {
			rep.Addf(law, "%s %d: duplicate key (sec %d, %s %d)", kind, i, k[0], unit, k[1])
		} else if pk[0] > k[0] || (pk[0] == k[0] && pk[1] > k[1]) {
			rep.Addf(law, "%s %d-%d out of (sec, %s) order", kind, i-1, i, unit)
		}
	}
	top := a.Dataset.Topology
	if m.VD < 0 || int(m.VD) >= len(disks) {
		rep.Addf(law, "%s %d: VD %d out of range", kind, i, m.VD)
		return false
	}
	if compute {
		if !ownsQP(top, m.VD, m.QP) {
			rep.Addf(law, "%s %d: QP %d not owned by VD %d", kind, i, m.QP, m.VD)
		}
	} else if !ownsSegment(top, m.VD, m.Segment) {
		rep.Addf(law, "%s %d: segment %d not owned by VD %d", kind, i, m.Segment, m.VD)
	} else if bs := a.expectedBS(int(m.Sec), m.Segment); bs != m.Storage {
		rep.Addf(law, "%s %d: storage node %d but placement says %d", kind, i, m.Storage, bs)
	}
	d := &disks[m.VD]
	want := d.owner
	if !compute {
		want.node = 0 // a storage row names no node
	}
	if got := (owner{m.VM, m.User, m.DC, m.Node}); got != want {
		rep.Addf(law, "%s %d: owner %+v but VD %d's is %+v", kind, i, got, m.VD, want)
	}
	if compute && (m.WT < 0 || int(m.WT) >= d.workers) {
		rep.Addf(law, "%s %d: WT %d outside node %d's %d worker threads", kind, i, m.WT, m.Node, d.workers)
	}
	return true
}

// checkRows walks each metric domain once, the two in step a second at a
// time, holding every row to metric/row-sanity (checkRow). At the end of
// each second the two domains' per-disk totals are held to
// conserve/compute-vs-storage: both domains observe the same IOs, grouped
// per QP or per segment, so a merge that drops, duplicates or misattributes
// work in one domain breaks it. checkRows returns the compute domain's
// per-disk totals over the window, conserve/workload's dataset side.
func checkRows(rep *Report, a *Artifacts, disks []disk) []vdTotals {
	const law = "conserve/compute-vs-storage"
	comp, stor := a.Dataset.Compute, a.Dataset.Storage
	c, s, whole := make([]vdTotals, len(disks)), make([]vdTotals, len(disks)), make([]vdTotals, len(disks))
	var touched []cluster.VDID // the disks with a row this second, once per domain
	count := func(tot []vdTotals, m *trace.MetricRow) {
		if tot[m.VD].rows == 0 {
			touched = append(touched, m.VD)
		}
		tot[m.VD].add(m)
	}
	for ci, si := 0, 0; ci < len(comp) || si < len(stor); {
		sec := int32(math.MaxInt32)
		if ci < len(comp) {
			sec = comp[ci].Sec
		}
		if si < len(stor) {
			sec = min(sec, stor[si].Sec)
		}
		for ; ci < len(comp) && comp[ci].Sec == sec; ci++ {
			if checkRow(rep, a, disks, trace.DomainCompute, comp, ci) {
				count(c, &comp[ci])
				whole[comp[ci].VD].add(&comp[ci])
			}
		}
		for ; si < len(stor) && stor[si].Sec == sec; si++ {
			if checkRow(rep, a, disks, trace.DomainStorage, stor, si) {
				count(s, &stor[si])
			}
		}
		for _, vd := range touched {
			x, y := &c[vd], &s[vd]
			if !relEq(x.rB, y.rB) || !relEq(x.wB, y.wB) || !relEq(x.rOps, y.rOps) || !relEq(x.wOps, y.wOps) {
				rep.Addf(law, "VD %d sec %d: the domains diverge (compute %+v, storage %+v)", vd, sec, *x, *y)
			}
			*x, *y = vdTotals{}, vdTotals{}
		}
		touched = touched[:0]
	}
	return whole
}

// checkWorkload holds the dataset to conserve/workload, the law that catches
// an IO silently dropped anywhere between generation and the final merge:
// per disk, the compute rows (rows, per-disk totals) must account for
// exactly the IOs the generator emitted, scaled by the event-thinning
// factor, and when every IO was traced so must the records (records,
// per-disk counts).
func checkWorkload(rep *Report, a *Artifacts, rows []vdTotals, records []int64) {
	const law = "conserve/workload"
	if a.Emission == nil {
		return
	}
	if len(a.Emission.PerVD) != len(rows) {
		rep.Addf(law, "the workload accounts for %d disks, the topology has %d", len(a.Emission.PerVD), len(rows))
		return
	}
	f := a.factor()
	full := a.TraceSampleEvery == 1
	var want int64
	for vd, t := range rows {
		em := &a.Emission.PerVD[vd]
		want += em.Events
		if !relEq(t.rOps, float64(em.ReadOps)*f) || !relEq(t.wOps, float64(em.WriteOps)*f) ||
			!relEq(t.rB, float64(em.ReadBytes)*f) || !relEq(t.wB, float64(em.WriteBytes)*f) {
			rep.Addf(law, "VD %d: dataset %+v diverges from the workload's %+v after x%v scaling", vd, t, *em, f)
		}
		if full && records[vd] != em.Events {
			rep.Addf(law, "VD %d: %d trace records for %d emitted IOs (full tracing)", vd, records[vd], em.Events)
		}
	}
	if full && int64(len(a.Dataset.Trace)) != want {
		rep.Addf(law, "trace has %d records for %d emitted IOs (full tracing)", len(a.Dataset.Trace), want)
	}
}
