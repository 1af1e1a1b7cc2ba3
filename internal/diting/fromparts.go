package diting

import "ebslab/internal/trace"

// FromParts reconstructs a Tracer from previously exported parts — sampled
// records plus the two metric-row domains — so a tracer can cross a process
// boundary: a fabric worker ships Records/ComputeRows/StorageRows over the
// wire and the coordinator rebuilds an equivalent tracer to feed Merge.
// Rows are re-keyed exactly as Observe keyed them ((sec, qp) and (sec,
// seg)), and since every key pins one VD, rebuilding shard tracers from
// VD-disjoint shards never collides a key across shards: Merge of rebuilt
// tracers is byte-identical to Merge of the originals.
func FromParts(sampleEvery int, records []trace.Record, compute, storage []trace.MetricRow) *Tracer {
	t := New(sampleEvery)
	t.records = records
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
