package invariant

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"ebslab/internal/trace"
)

// Fingerprint returns a collision-resistant digest of everything a dataset
// observed: every per-IO record and every metric row, field by field, in
// order. Two runs are byte-identical replays iff their fingerprints match,
// which is what the determinism oracles compare.
func Fingerprint(ds *trace.Dataset) string {
	h := sha256.New()
	var buf [8]byte
	wU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wI64 := func(v int64) { wU64(uint64(v)) }
	wF64 := func(v float64) { wU64(math.Float64bits(v)) }

	wI64(int64(ds.DurationSec))
	wI64(int64(len(ds.Trace)))
	for i := range ds.Trace {
		r := &ds.Trace[i]
		wU64(r.TraceID)
		wI64(r.TimeUS)
		wU64(uint64(r.Op))
		wI64(int64(r.Size))
		wI64(r.Offset)
		wI64(int64(r.DC))
		wI64(int64(r.Node))
		wI64(int64(r.User))
		wI64(int64(r.VM))
		wI64(int64(r.VD))
		wI64(int64(r.QP))
		wI64(int64(r.WT))
		wI64(int64(r.Storage))
		wI64(int64(r.Segment))
		for _, l := range r.Latency {
			wU64(uint64(math.Float32bits(l)))
		}
	}
	hashRows(h, wI64, wF64, ds.Compute)
	hashRows(h, wI64, wF64, ds.Storage)
	return hex.EncodeToString(h.Sum(nil))
}

func hashRows(h hash.Hash, wI64 func(int64), wF64 func(float64), rows []trace.MetricRow) {
	wI64(int64(len(rows)))
	for i := range rows {
		m := &rows[i]
		wI64(int64(m.Domain))
		wI64(int64(m.Sec))
		wI64(int64(m.DC))
		wI64(int64(m.User))
		wI64(int64(m.VM))
		wI64(int64(m.VD))
		wI64(int64(m.Node))
		wI64(int64(m.QP))
		wI64(int64(m.WT))
		wI64(int64(m.Storage))
		wI64(int64(m.Segment))
		wF64(m.ReadBps)
		wF64(m.WriteBps)
		wF64(m.ReadIOPS)
		wF64(m.WriteIOPS)
	}
}
