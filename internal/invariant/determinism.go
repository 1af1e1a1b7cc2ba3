package invariant

import (
	"math"

	"ebslab/internal/trace"
	"ebslab/internal/wire"
)

// Fingerprint returns a collision-resistant digest of everything a dataset
// observed: every per-IO record and every metric row, field by field, in
// order. Two runs are byte-identical replays iff their fingerprints match,
// which is what the determinism oracles compare.
func Fingerprint(ds *trace.Dataset) string {
	d := new(wire.Digest)
	d.I64(int64(ds.DurationSec))
	d.I64(int64(len(ds.Trace)))
	for i := range ds.Trace {
		r := &ds.Trace[i]
		d.U64(r.TraceID)
		d.I64(r.TimeUS)
		d.U64(uint64(r.Op))
		d.I64(int64(r.Size))
		d.I64(r.Offset)
		d.I64(int64(r.DC))
		d.I64(int64(r.Node))
		d.I64(int64(r.User))
		d.I64(int64(r.VM))
		d.I64(int64(r.VD))
		d.I64(int64(r.QP))
		d.I64(int64(r.WT))
		d.I64(int64(r.Storage))
		d.I64(int64(r.Segment))
		for _, l := range r.Latency {
			d.U64(uint64(math.Float32bits(l)))
		}
	}
	hashRows(d, ds.Compute)
	hashRows(d, ds.Storage)
	return d.Sum()
}

func hashRows(d *wire.Digest, rows []trace.MetricRow) {
	d.I64(int64(len(rows)))
	for i := range rows {
		m := &rows[i]
		d.I64(int64(m.Domain))
		d.I64(int64(m.Sec))
		d.I64(int64(m.DC))
		d.I64(int64(m.User))
		d.I64(int64(m.VM))
		d.I64(int64(m.VD))
		d.I64(int64(m.Node))
		d.I64(int64(m.QP))
		d.I64(int64(m.WT))
		d.I64(int64(m.Storage))
		d.I64(int64(m.Segment))
		d.F64(m.ReadBps)
		d.F64(m.WriteBps)
		d.F64(m.ReadIOPS)
		d.F64(m.WriteIOPS)
	}
}
