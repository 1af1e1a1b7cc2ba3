package diting

import (
	"ebslab/internal/cluster"
	"ebslab/internal/trace"
)

// qpMemoEnt and segMemoEnt memoize accumulator pointers for the second
// currently being ingested, replacing two map lookups per IO with a short
// linear scan: a virtual disk touches only a handful of queue pairs and
// segments within one second, and engine batches arrive in time order.
type qpMemoEnt struct {
	qp cluster.QPID
	a  *accum
}

type segMemoEnt struct {
	seg cluster.SegmentID
	a   *accum
}

// maxMemoEnts bounds the memo scan; pathological seconds fall back to the
// maps, which remain the source of truth.
const maxMemoEnts = 32

// EmitBatch ingests a columnar batch of completed IOs: the batched form of
// Observe, with identical semantics — rows are folded per record in batch
// order, so float accumulation order (and therefore every output bit)
// matches the record-at-a-time path.
func (t *Tracer) EmitBatch(b *trace.Batch) {
	n := b.Len()
	t.keepBatch(b, n)
	for i := 0; i < n; i++ {
		sec := int32(b.TimeUS[i] / 1_000_000)
		if sec != t.memoSec {
			t.memoSec = sec
			t.qpMemo = t.qpMemo[:0]
			t.segMemo = t.segMemo[:0]
		}
		bytes := float64(b.Size[i])

		qp := b.QP[i]
		var ca *accum
		for j := range t.qpMemo {
			if t.qpMemo[j].qp == qp {
				ca = t.qpMemo[j].a
				break
			}
		}
		if ca == nil {
			ck := computeKey{sec: sec, qp: qp}
			ca = t.compute[ck]
			if ca == nil {
				ca = t.alloc()
				ca.row = trace.MetricRow{
					Domain: trace.DomainCompute, Sec: sec, DC: b.DC[i],
					User: b.User[i], VM: b.VM[i], VD: b.VD[i],
					Node: b.Node[i], QP: qp, WT: b.WT[i],
				}
				t.compute[ck] = ca
			}
			if len(t.qpMemo) < maxMemoEnts {
				t.qpMemo = append(t.qpMemo, qpMemoEnt{qp: qp, a: ca})
			}
		}
		addDirectional(&ca.row, b.Op[i], bytes)

		seg := b.Segment[i]
		var sa *accum
		for j := range t.segMemo {
			if t.segMemo[j].seg == seg {
				sa = t.segMemo[j].a
				break
			}
		}
		if sa == nil {
			sk := storageKey{sec: sec, seg: seg}
			sa = t.storage[sk]
			if sa == nil {
				sa = t.alloc()
				sa.row = trace.MetricRow{
					Domain: trace.DomainStorage, Sec: sec, DC: b.DC[i],
					User: b.User[i], VM: b.VM[i], VD: b.VD[i],
					Storage: b.Storage[i], Segment: seg,
				}
				t.storage[sk] = sa
			}
			if len(t.segMemo) < maxMemoEnts {
				t.segMemo = append(t.segMemo, segMemoEnt{seg: seg, a: sa})
			}
		}
		addDirectional(&sa.row, b.Op[i], bytes)
	}
}

// keepBatch packs the batch's sampled records straight from its columns, as
// a pass of its own so the metric loop carries no record code, and notes
// where the merge's sorted runs start among them. When every record is kept,
// room is made once for the whole batch (a check per record is measurable on
// a fully traced run) and a record's run start is tested as it is packed (a
// pass of its own over the time and VD columns measured slower); when
// sampling, per kept record — a few in ten thousand.
func (t *Tracer) keepBatch(b *trace.Batch, n int) {
	if t.sampleEvery == 1 {
		dst := t.reserve(n)
		base, last := t.kept(), t.last
		for i := 0; i < n; i++ {
			rec := dst[i*trace.RecordSize:]
			trace.PackRow(b, i, rec)
			k := keyOf(rec, 0)
			if k.before(last) == 1 {
				t.marks = append(t.marks, base+i)
			}
			last = k
		}
		t.keep(n)
		t.last = last
		return
	}
	for i := 0; i < n; i++ {
		if t.sampled(b.TraceID[i]) {
			dst := t.reserve(1)
			trace.PackRow(b, i, dst)
			t.mark(keyOf(dst, 0))
			t.keep(1)
		}
	}
}
