package sketch

import (
	"ebslab/internal/trace"
)

// ObserveBatch ingests a columnar batch of completed IOs: the batched form
// of Observe with identical semantics (rows fold in batch order, so the
// resulting sketch state — and its Fingerprint — matches the record-at-a-
// time path bit for bit). Engine batches hold a single virtual disk's rows,
// which the loop exploits by hoisting the per-VD map lookups across
// same-VD runs; mixed-VD batches remain correct.
func (s *Set) ObserveBatch(b *trace.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	lastVD := uint64(b.VD[0])
	dc := s.vdCount(lastVD)
	ss := s.vdSegHot(lastVD)
	for i := 0; i < n; i++ {
		vd := uint64(b.VD[i])
		if vd != lastVD {
			lastVD = vd
			dc = s.vdCount(vd)
			ss = s.vdSegHot(vd)
		}
		s.ingest(dc, ss, vd, b.Op[i] == trace.OpRead,
			b.Size[i], b.TimeUS[i], b.Offset[i], uint64(b.Segment[i]), b.TotalLatencyAt(i))
	}
}
