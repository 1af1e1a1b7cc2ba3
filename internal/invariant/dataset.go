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

// checkTraceIntegrity asserts referential integrity of every per-IO record: each
// field must name a real entity and the fields must agree with the topology
// (the QP belongs to the VD, the segment covers the offset, the storage
// node is the one the placement assigns, and so on).
func checkTraceIntegrity(rep *Report, a *Artifacts) {
	const law = "trace/integrity"
	top := a.Dataset.Topology
	winUS := int64(a.Dataset.DurationSec) * 1_000_000
	for i := range a.Dataset.Trace {
		r := &a.Dataset.Trace[i]
		if int(r.VD) >= len(top.VDs) || r.VD < 0 {
			rep.Addf(law, "record %d: VD %d out of range", i, r.VD)
			continue
		}
		vd := &top.VDs[r.VD]
		if int(r.QP) >= len(top.QPs) || r.QP < 0 || top.QPs[r.QP].VD != r.VD {
			rep.Addf(law, "record %d: QP %d not owned by VD %d", i, r.QP, r.VD)
		}
		if int(r.Segment) >= len(top.Segments) || r.Segment < 0 || top.Segments[r.Segment].VD != r.VD {
			rep.Addf(law, "record %d: segment %d not owned by VD %d", i, r.Segment, r.VD)
		} else if bs := a.expectedBS(int(r.TimeUS/1_000_000), r.Segment); bs != r.Storage {
			rep.Addf(law, "record %d: storage node %d but placement maps segment %d to %d", i, r.Storage, r.Segment, bs)
		}
		if vd.VM != r.VM {
			rep.Addf(law, "record %d: VM %d but VD %d belongs to VM %d", i, r.VM, r.VD, vd.VM)
		} else {
			vm := &top.VMs[r.VM]
			if vm.Node != r.Node {
				rep.Addf(law, "record %d: node %d but VM %d lives on node %d", i, r.Node, r.VM, vm.Node)
			} else {
				node := &top.Nodes[r.Node]
				if node.DC != r.DC {
					rep.Addf(law, "record %d: DC %d but node %d is in DC %d", i, r.DC, r.Node, node.DC)
				}
				if r.WT < 0 || int(r.WT) >= node.WorkerNum {
					rep.Addf(law, "record %d: WT %d outside node %d's %d worker threads", i, r.WT, r.Node, node.WorkerNum)
				}
			}
			if vm.User != r.User {
				rep.Addf(law, "record %d: user %d but VM %d belongs to user %d", i, r.User, r.VM, vm.User)
			}
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
			if math.IsNaN(float64(l)) || l < 0 {
				rep.Addf(law, "record %d: stage %d latency %v invalid", i, st, l)
			}
		}
	}
}

// checkTraceCanonical asserts the merge's canonical ordering contract: records
// sorted by (TimeUS, VD) with trace IDs reassigned 1..N in that order. This
// is what makes a run's trace byte-identical across worker counts — any
// shard-dependent leakage shows up here.
func checkTraceCanonical(rep *Report, a *Artifacts) {
	const law = "trace/canonical-order"
	recs := a.Dataset.Trace
	for i := range recs {
		if recs[i].TraceID != uint64(i+1) {
			rep.Addf(law, "record %d: trace ID %d, want %d", i, recs[i].TraceID, i+1)
		}
		if i == 0 {
			continue
		}
		p, c := &recs[i-1], &recs[i]
		if p.TimeUS > c.TimeUS || (p.TimeUS == c.TimeUS && p.VD > c.VD) {
			rep.Addf(law, "records %d-%d out of (time, VD) order: (%d, %d) then (%d, %d)",
				i-1, i, p.TimeUS, p.VD, c.TimeUS, c.VD)
		}
	}
}

// checkRowSanity asserts per-row invariants of the metric dataset: finite
// non-negative rates, in-window seconds, identity fields that agree with
// the topology, canonical sort order, and no duplicate aggregation keys.
func checkRowSanity(rep *Report, a *Artifacts) {
	const law = "metric/row-sanity"
	top := a.Dataset.Topology
	checkRates := func(kind string, i int, m *trace.MetricRow) {
		for _, v := range [...]float64{m.ReadBps, m.WriteBps, m.ReadIOPS, m.WriteIOPS} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				rep.Addf(law, "%s row %d: invalid rate %v", kind, i, v)
				return
			}
		}
		if m.Bps() == 0 && m.IOPS() == 0 {
			rep.Addf(law, "%s row %d: empty row (no traffic)", kind, i)
		}
		if m.Sec < 0 || int(m.Sec) >= a.Dataset.DurationSec {
			rep.Addf(law, "%s row %d: second %d outside window [0, %d)", kind, i, m.Sec, a.Dataset.DurationSec)
		}
	}

	type computeKey struct {
		sec int32
		qp  cluster.QPID
	}
	seenC := make(map[computeKey]bool, len(a.Dataset.Compute))
	for i := range a.Dataset.Compute {
		m := &a.Dataset.Compute[i]
		if m.Domain != trace.DomainCompute {
			rep.Addf(law, "compute row %d: domain %v", i, m.Domain)
		}
		checkRates("compute", i, m)
		if int(m.QP) >= len(top.QPs) || m.QP < 0 || top.QPs[m.QP].VD != m.VD {
			rep.Addf(law, "compute row %d: QP %d not owned by VD %d", i, m.QP, m.VD)
		}
		k := computeKey{m.Sec, m.QP}
		if seenC[k] {
			rep.Addf(law, "compute row %d: duplicate key (sec %d, QP %d)", i, m.Sec, m.QP)
		}
		seenC[k] = true
		if i > 0 {
			p := &a.Dataset.Compute[i-1]
			if p.Sec > m.Sec || (p.Sec == m.Sec && p.QP > m.QP) {
				rep.Addf(law, "compute rows %d-%d out of (sec, QP) order", i-1, i)
			}
		}
	}

	type storageKey struct {
		sec int32
		seg cluster.SegmentID
	}
	seenS := make(map[storageKey]bool, len(a.Dataset.Storage))
	for i := range a.Dataset.Storage {
		m := &a.Dataset.Storage[i]
		if m.Domain != trace.DomainStorage {
			rep.Addf(law, "storage row %d: domain %v", i, m.Domain)
		}
		checkRates("storage", i, m)
		if int(m.Segment) >= len(top.Segments) || m.Segment < 0 || top.Segments[m.Segment].VD != m.VD {
			rep.Addf(law, "storage row %d: segment %d not owned by VD %d", i, m.Segment, m.VD)
		} else if bs := a.expectedBS(int(m.Sec), m.Segment); bs != m.Storage {
			rep.Addf(law, "storage row %d: storage node %d but placement says %d", i, m.Storage, bs)
		}
		k := storageKey{m.Sec, m.Segment}
		if seenS[k] {
			rep.Addf(law, "storage row %d: duplicate key (sec %d, segment %d)", i, m.Sec, m.Segment)
		}
		seenS[k] = true
		if i > 0 {
			p := &a.Dataset.Storage[i-1]
			if p.Sec > m.Sec || (p.Sec == m.Sec && p.Segment > m.Segment) {
				rep.Addf(law, "storage rows %d-%d out of (sec, segment) order", i-1, i)
			}
		}
	}
}

// vdSecTotals aggregates one metric domain to (VD, second) granularity.
type vdSecTotals struct {
	rBps, wBps, rOps, wOps float64
}

type vdSecKey struct {
	vd  cluster.VDID
	sec int32
}

func foldRows(rows []trace.MetricRow) map[vdSecKey]*vdSecTotals {
	out := make(map[vdSecKey]*vdSecTotals)
	for i := range rows {
		m := &rows[i]
		k := vdSecKey{m.VD, m.Sec}
		t := out[k]
		if t == nil {
			t = &vdSecTotals{}
			out[k] = t
		}
		t.rBps += m.ReadBps
		t.wBps += m.WriteBps
		t.rOps += m.ReadIOPS
		t.wOps += m.WriteIOPS
	}
	return out
}

// checkDomainConservation asserts the hypervisor-to-BlockServer conservation
// law: both metric domains observe the same IOs, grouped differently (per
// QP-WT vs per segment), so at (VD, second) granularity their totals must
// agree exactly. A shard merge that drops, duplicates, or misattributes
// work in one domain breaks this immediately.
func checkDomainConservation(rep *Report, a *Artifacts) {
	const law = "conserve/compute-vs-storage"
	comp := foldRows(a.Dataset.Compute)
	stor := foldRows(a.Dataset.Storage)
	for k, c := range comp {
		s := stor[k]
		if s == nil {
			rep.Addf(law, "VD %d sec %d: hypervisor saw %v B/s but no storage rows", k.vd, k.sec, c.rBps+c.wBps)
			continue
		}
		if !relEq(c.rBps, s.rBps) || !relEq(c.wBps, s.wBps) {
			rep.Addf(law, "VD %d sec %d: bytes diverge between domains (compute %v/%v, storage %v/%v)",
				k.vd, k.sec, c.rBps, c.wBps, s.rBps, s.wBps)
		}
		if !relEq(c.rOps, s.rOps) || !relEq(c.wOps, s.wOps) {
			rep.Addf(law, "VD %d sec %d: ops diverge between domains (compute %v/%v, storage %v/%v)",
				k.vd, k.sec, c.rOps, c.wOps, s.rOps, s.wOps)
		}
	}
	for k, s := range stor {
		if comp[k] == nil {
			rep.Addf(law, "VD %d sec %d: BlockServer saw %v B/s but no compute rows", k.vd, k.sec, s.rBps+s.wBps)
		}
	}
}

// checkWorkloadConservation asserts the workload-to-dataset conservation law:
// per VD, the metric rows must account for exactly the IOs the generator
// emitted (scaled by the event-thinning factor), and — when every IO was
// traced — the per-IO records must as well. This is the law that catches
// an IO silently dropped anywhere between generation and the final merge.
func checkWorkloadConservation(rep *Report, a *Artifacts) {
	const law = "conserve/workload"
	if a.Emission == nil {
		return
	}
	f := a.factor()

	// Per-VD dataset totals from the compute domain.
	type tot struct{ rB, wB, rOps, wOps float64 }
	ds := make(map[cluster.VDID]*tot)
	for i := range a.Dataset.Compute {
		m := &a.Dataset.Compute[i]
		t := ds[m.VD]
		if t == nil {
			t = &tot{}
			ds[m.VD] = t
		}
		t.rB += m.ReadBps
		t.wB += m.WriteBps
		t.rOps += m.ReadIOPS
		t.wOps += m.WriteIOPS
	}
	for vd := range a.Emission.PerVD {
		em := &a.Emission.PerVD[vd]
		t := ds[cluster.VDID(vd)]
		if t == nil {
			if em.Events != 0 {
				rep.Addf(law, "VD %d: workload emitted %d IOs but dataset has none", vd, em.Events)
			}
			continue
		}
		if !relEq(t.rOps, float64(em.ReadOps)*f) || !relEq(t.wOps, float64(em.WriteOps)*f) {
			rep.Addf(law, "VD %d: op counts diverge (dataset %v/%v, workload %v/%v after x%v scaling)",
				vd, t.rOps, t.wOps, em.ReadOps, em.WriteOps, f)
		}
		if !relEq(t.rB, float64(em.ReadBytes)*f) || !relEq(t.wB, float64(em.WriteBytes)*f) {
			rep.Addf(law, "VD %d: byte totals diverge (dataset %v/%v, workload %v/%v after x%v scaling)",
				vd, t.rB, t.wB, em.ReadBytes, em.WriteBytes, f)
		}
	}
	for vd, t := range ds {
		if int(vd) >= len(a.Emission.PerVD) {
			rep.Addf(law, "VD %d: dataset rows for a disk the workload never emitted (%v B/s)", vd, t.rB+t.wB)
		}
	}

	// With full tracing, the per-IO records are a third ledger.
	if a.TraceSampleEvery == 1 {
		perVD := make(map[cluster.VDID]int64)
		for i := range a.Dataset.Trace {
			perVD[a.Dataset.Trace[i].VD]++
		}
		var want int64
		for vd := range a.Emission.PerVD {
			em := &a.Emission.PerVD[vd]
			want += em.Events
			if got := perVD[cluster.VDID(vd)]; got != em.Events {
				rep.Addf(law, "VD %d: %d trace records for %d emitted IOs (full tracing)", vd, got, em.Events)
			}
		}
		if int64(len(a.Dataset.Trace)) != want {
			rep.Addf(law, "trace has %d records for %d emitted IOs (full tracing)", len(a.Dataset.Trace), want)
		}
	}
}
