package diting

import (
	"reflect"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
)

func TestObserveAggregatesPerSecond(t *testing.T) {
	tr := New(1)
	tr.Observe(trace.Record{TraceID: 1, TimeUS: 100, Op: trace.OpWrite, Size: 4096, QP: 7, Segment: 3})
	tr.Observe(trace.Record{TraceID: 2, TimeUS: 999_999, Op: trace.OpWrite, Size: 4096, QP: 7, Segment: 3})
	tr.Observe(trace.Record{TraceID: 3, TimeUS: 1_000_000, Op: trace.OpRead, Size: 8192, QP: 7, Segment: 3})

	rows := tr.ComputeRows()
	if len(rows) != 2 {
		t.Fatalf("compute rows = %d, want 2 (two seconds)", len(rows))
	}
	if rows[0].WriteBps != 8192 || rows[0].WriteIOPS != 2 || rows[0].ReadBps != 0 {
		t.Fatalf("second 0 row = %+v", rows[0])
	}
	if rows[1].ReadBps != 8192 || rows[1].ReadIOPS != 1 {
		t.Fatalf("second 1 row = %+v", rows[1])
	}
	srows := tr.StorageRows()
	if len(srows) != 2 || srows[0].Segment != 3 {
		t.Fatalf("storage rows = %+v", srows)
	}
	if len(tr.Records()) != 3 {
		t.Fatalf("sample-everything tracer kept %d records", len(tr.Records()))
	}
}

func TestSamplingThinsRecordsButNotMetrics(t *testing.T) {
	tr := New(100)
	const n = 20000
	for i := uint64(0); i < n; i++ {
		tr.Observe(trace.Record{TraceID: tr.NextTraceID(), TimeUS: 5, Op: trace.OpWrite, Size: 512, QP: 1, Segment: 1})
	}
	kept := len(tr.Records())
	if kept == 0 || kept > n/50 {
		t.Fatalf("kept %d records out of %d at 1/100 sampling", kept, n)
	}
	rows := tr.ComputeRows()
	if len(rows) != 1 || rows[0].WriteIOPS != n {
		t.Fatalf("metric rows must count every IO: %+v", rows)
	}
}

func TestDistinctQPsGetDistinctRows(t *testing.T) {
	tr := New(1)
	tr.Observe(trace.Record{TraceID: 1, TimeUS: 0, Op: trace.OpRead, Size: 1024, QP: 1, Segment: 5})
	tr.Observe(trace.Record{TraceID: 2, TimeUS: 0, Op: trace.OpRead, Size: 2048, QP: 2, Segment: 5})
	rows := tr.ComputeRows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].QP != 1 || rows[1].QP != 2 {
		t.Fatalf("rows not sorted by QP: %+v", rows)
	}
	// Same segment -> one storage row with the sum.
	srows := tr.StorageRows()
	if len(srows) != 1 || srows[0].ReadBps != 3072 {
		t.Fatalf("storage rows = %+v", srows)
	}
}

// TestMergeMatchesSingleTracer feeds one stream whole into a single tracer
// and split across shards (per-VD, as the engine shards), and requires the
// merged output to match the single tracer's rows exactly, with records in
// canonical (time, VD) order and renumbered 1..N.
func TestMergeMatchesSingleTracer(t *testing.T) {
	mkRec := func(vd int, seq int, timeUS int64, op trace.Op, size int32) trace.Record {
		return trace.Record{
			TimeUS: timeUS, Op: op, Size: size,
			VD: cluster.VDID(vd), QP: cluster.QPID(vd), Segment: cluster.SegmentID(vd),
		}
	}
	// Three VDs with interleaved timestamps, including duplicates.
	streams := map[int][]trace.Record{
		0: {mkRec(0, 0, 10, trace.OpRead, 4096), mkRec(0, 1, 30, trace.OpWrite, 8192), mkRec(0, 2, 30, trace.OpWrite, 512)},
		1: {mkRec(1, 0, 5, trace.OpWrite, 1024), mkRec(1, 1, 30, trace.OpRead, 2048)},
		2: {mkRec(2, 0, 30, trace.OpRead, 4096), mkRec(2, 1, 50, trace.OpWrite, 4096)},
	}
	base := func(vd int) uint64 { return (uint64(vd) + 1) << 40 }

	observe := func(tr *Tracer, vd int) {
		tr.StartStream(base(vd))
		for _, r := range streams[vd] {
			r.TraceID = tr.NextTraceID()
			tr.Observe(r)
		}
	}

	single := New(1)
	for vd := 0; vd < 3; vd++ {
		observe(single, vd)
	}
	// Shard assignment intentionally scrambled: VD 2 and VD 0 share a
	// shard, VD 1 sits alone, processed out of VD order.
	shardA, shardB := New(1), New(1)
	observe(shardA, 2)
	observe(shardB, 1)
	observe(shardA, 0)
	merged := Merge(1, shardA, shardB)

	wantOrder := []struct {
		timeUS int64
		vd     cluster.VDID
	}{{5, 1}, {10, 0}, {30, 0}, {30, 0}, {30, 1}, {30, 2}, {50, 2}}
	recs := merged.Records()
	if len(recs) != len(wantOrder) {
		t.Fatalf("merged %d records, want %d", len(recs), len(wantOrder))
	}
	for i, w := range wantOrder {
		if recs[i].TraceID != uint64(i+1) {
			t.Fatalf("record %d: trace ID %d, want %d", i, recs[i].TraceID, i+1)
		}
		if recs[i].TimeUS != w.timeUS || recs[i].VD != w.vd {
			t.Fatalf("record %d: (%d, vd%d), want (%d, vd%d)", i, recs[i].TimeUS, recs[i].VD, w.timeUS, w.vd)
		}
	}
	// Same-VD same-time records must preserve generation order (8192 then
	// 512 for VD 0 at t=30).
	if recs[2].Size != 8192 || recs[3].Size != 512 {
		t.Fatalf("generation order lost within VD 0: %d then %d", recs[2].Size, recs[3].Size)
	}

	wantC, gotC := single.ComputeRows(), merged.ComputeRows()
	if !reflect.DeepEqual(wantC, gotC) {
		t.Fatalf("compute rows differ:\nwant %+v\ngot  %+v", wantC, gotC)
	}
	wantS, gotS := single.StorageRows(), merged.StorageRows()
	if !reflect.DeepEqual(wantS, gotS) {
		t.Fatalf("storage rows differ:\nwant %+v\ngot  %+v", wantS, gotS)
	}
}

// TestMergeSumsCollidingKeys covers the general contract: two shards that
// touched the same (sec, qp) key merge into one row with summed rates.
func TestMergeSumsCollidingKeys(t *testing.T) {
	a, b := New(1), New(1)
	a.Observe(trace.Record{TraceID: 1, TimeUS: 0, Op: trace.OpRead, Size: 1024, QP: 9, Segment: 4})
	b.Observe(trace.Record{TraceID: 2, TimeUS: 100, Op: trace.OpRead, Size: 2048, QP: 9, Segment: 4})
	rows := Merge(1, a, b).ComputeRows()
	if len(rows) != 1 || rows[0].ReadBps != 3072 || rows[0].ReadIOPS != 2 {
		t.Fatalf("merged rows = %+v", rows)
	}
}

func TestStartStreamOffsetsIDs(t *testing.T) {
	tr := New(1)
	tr.StartStream(1 << 40)
	if id := tr.NextTraceID(); id != (1<<40)+1 {
		t.Fatalf("first ID after StartStream = %d", id)
	}
}

func TestNextTraceIDUnique(t *testing.T) {
	tr := New(1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := tr.NextTraceID()
		if seen[id] {
			t.Fatal("duplicate trace ID")
		}
		seen[id] = true
	}
}

// Observe ingests one completed IO: it always updates both metric domains
// and records the full trace when the ID falls in the sample. It is the
// record-at-a-time form of EmitBatch, the reference the batch tests hold
// EmitBatch to.
func (t *Tracer) Observe(rec trace.Record) {
	if t.sampled(rec.TraceID) {
		dst := t.reserve(1)
		trace.Pack(&rec, dst)
		t.mark(keyOf(dst, 0))
		t.keep(1)
	}
	sec := int32(rec.TimeUS / 1_000_000)
	bytes := float64(rec.Size)

	ck := computeKey{sec: sec, qp: rec.QP}
	ca := t.compute[ck]
	if ca == nil {
		ca = t.alloc()
		ca.row = trace.MetricRow{
			Domain: trace.DomainCompute, Sec: sec, DC: rec.DC,
			User: rec.User, VM: rec.VM, VD: rec.VD,
			Node: rec.Node, QP: rec.QP, WT: rec.WT,
		}
		t.compute[ck] = ca
	}
	addDirectional(&ca.row, rec.Op, bytes)

	sk := storageKey{sec: sec, seg: rec.Segment}
	sa := t.storage[sk]
	if sa == nil {
		sa = t.alloc()
		sa.row = trace.MetricRow{
			Domain: trace.DomainStorage, Sec: sec, DC: rec.DC,
			User: rec.User, VM: rec.VM, VD: rec.VD,
			Storage: rec.Storage, Segment: rec.Segment,
		}
		t.storage[sk] = sa
	}
	addDirectional(&sa.row, rec.Op, bytes)
}
