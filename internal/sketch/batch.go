package sketch

import (
	"math"

	"ebslab/internal/trace"
)

// observeChunk is how many rows ObserveBatch takes the latency logarithms
// of at a time (a stack buffer each for the totals and their logarithms).
const observeChunk = 256

// ObserveBatch ingests a columnar batch of completed IOs: the batched form
// of Observe with identical semantics (rows fold in batch order, so the
// resulting sketch state — and its Fingerprint — matches the record-at-a-
// time path bit for bit). Engine batches hold a single virtual disk's rows,
// which the loop exploits by hoisting the per-VD map lookups across
// same-VD runs; mixed-VD batches remain correct. The latency sketch's
// math.Log runs a chunk of rows at a time, in a loop of its own, ahead of
// the ingest: back to back the calls overlap instead of each stalling the
// bucket lookup that needs it.
func (s *Set) ObserveBatch(b *trace.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	lastVD := uint64(b.VD[0])
	dc := s.vdCount(lastVD)
	ss := s.vdSegHot(lastVD)
	var lat, logLat [observeChunk]float64
	for lo := 0; lo < n; lo += observeChunk {
		m := min(observeChunk, n-lo)
		for j := 0; j < m; j++ {
			lat[j] = b.TotalLatencyAt(lo + j)
			logLat[j] = math.Log(lat[j])
		}
		for j := 0; j < m; j++ {
			i := lo + j
			vd := uint64(b.VD[i])
			if vd != lastVD {
				lastVD = vd
				dc = s.vdCount(vd)
				ss = s.vdSegHot(vd)
			}
			s.ingest(dc, ss, vd, b.Op[i] == trace.OpRead,
				b.Size[i], b.TimeUS[i], b.Offset[i], uint64(b.Segment[i]), lat[j], logLat[j])
		}
	}
}
