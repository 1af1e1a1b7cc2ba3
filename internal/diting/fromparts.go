package diting

import "ebslab/internal/trace"

// FromParts reconstructs a Tracer from previously exported parts — sampled
// records plus the two metric-row domains — so a tracer can cross a process
// boundary: a fabric worker ships its packed record chunks and ComputeRows/
// StorageRows over the wire and the coordinator rebuilds an equivalent tracer
// to feed Merge. The records arrive packed (trace.Pack's layout) in the
// chunk(s) they sit in — one slice for a decoded frame, which is the frame's
// own record section, a tracer's AppendChunks list for a shard that never
// left the process — and are aliased, not copied: the tracer is for Merge to
// read (Merge unpacks) and must never be observed into, pooled or Released.
// marks are where the records' sorted runs start, as positions (in records)
// in the walk of chunks; whoever wrote the records notes them (AppendChunks
// passes a tracer's through, a decoder notes every record StartsRun) and
// Merge cuts runs there and at chunk ends without reading the records again.
// Every record that StartsRun within its chunk must be marked; a mark more is
// harmless. Rows are re-keyed exactly as Observe keyed them ((sec, qp) and
// (sec, seg)), in whatever order they arrive, and since every key pins one
// VD, rebuilding shard tracers from VD-disjoint shards never collides a key
// across shards: Merge of rebuilt tracers is byte-identical to Merge of the
// originals.
func FromParts(sampleEvery int, chunks [][]byte, marks []int, compute, storage []trace.MetricRow) *Tracer {
	t := New(sampleEvery)
	if last := len(chunks) - 1; last >= 0 {
		t.full = append(t.full, chunks[:last]...)
		t.chunk = chunks[last]
	}
	t.marks = marks
	for i := range compute {
		a := t.alloc()
		a.row = compute[i]
		t.compute[computeKey{sec: a.row.Sec, qp: a.row.QP}] = a
	}
	for i := range storage {
		a := t.alloc()
		a.row = storage[i]
		t.storage[storageKey{sec: a.row.Sec, seg: a.row.Segment}] = a
	}
	return t
}
