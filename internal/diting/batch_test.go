package diting

import (
	"math/rand"
	"reflect"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
)

// synthRecord builds a record shaped like engine output for a small VD set.
func synthRecord(rng *rand.Rand, id uint64, vd int, timeUS int64) trace.Record {
	rec := trace.Record{
		TraceID: id,
		TimeUS:  timeUS,
		Op:      trace.Op(rng.Intn(2)),
		Size:    int32((rng.Intn(64) + 1) * 4096),
		Offset:  rng.Int63n(1 << 30),
		DC:      cluster.DCID(vd % 2),
		Node:    cluster.NodeID(vd % 5),
		User:    cluster.UserID(vd % 3),
		VM:      cluster.VMID(vd),
		VD:      cluster.VDID(vd),
		QP:      cluster.QPID(vd*4 + rng.Intn(4)),
		WT:      int8(rng.Intn(8)),
		Storage: cluster.StorageNodeID(vd % 7),
		Segment: cluster.SegmentID(vd*16 + rng.Intn(16)),
	}
	for s := range rec.Latency {
		rec.Latency[s] = float32(rng.Float64() * 500)
	}
	return rec
}

// TestEmitBatchEquivalence streams the same synthetic workload through
// Observe and through EmitBatch at several batch capacities (forcing flush
// boundaries mid-second and mid-VD) and requires identical records and
// metric rows.
func TestEmitBatchEquivalence(t *testing.T) {
	const sampleEvery = 4
	makeRecords := func() [][]trace.Record {
		rng := rand.New(rand.NewSource(7))
		var perVD [][]trace.Record
		for vd := 0; vd < 6; vd++ {
			var recs []trace.Record
			base := uint64(vd+1) << 40
			n := 200 + rng.Intn(200)
			timeUS := int64(0)
			for i := 0; i < n; i++ {
				timeUS += int64(rng.Intn(40_000))
				recs = append(recs, synthRecord(rng, base+uint64(i+1), vd, timeUS))
			}
			perVD = append(perVD, recs)
		}
		return perVD
	}

	want := New(sampleEvery)
	for _, recs := range makeRecords() {
		for _, rec := range recs {
			want.Observe(rec)
		}
	}

	for _, capacity := range []int{1, 3, 64, trace.DefaultBatchCap} {
		got := Acquire(sampleEvery)
		b := trace.GetBatch(capacity)
		for _, recs := range makeRecords() {
			for i := range recs {
				b.Append(&recs[i])
				if b.Full() {
					got.EmitBatch(b)
					b.Reset()
				}
			}
		}
		got.EmitBatch(b)
		b.Release()

		if !reflect.DeepEqual(got.Records(), want.Records()) {
			t.Fatalf("cap %d: sampled records differ (%d vs %d)", capacity, len(got.Records()), len(want.Records()))
		}
		if !reflect.DeepEqual(got.ComputeRows(), want.ComputeRows()) {
			t.Fatalf("cap %d: compute rows differ", capacity)
		}
		if !reflect.DeepEqual(got.StorageRows(), want.StorageRows()) {
			t.Fatalf("cap %d: storage rows differ", capacity)
		}
		got.Release()
	}
}

// TestChunkRollover drives a fully traced stream past two chunk boundaries
// and requires what EmitBatch parked across them to read back, through
// Records, as exactly what Observe kept.
func TestChunkRollover(t *testing.T) {
	const n = 2*chunkRecords + 777
	rng := rand.New(rand.NewSource(18))
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = synthRecord(rng, uint64(i+1), i%6, int64(i)*40)
	}
	want, got := New(1), New(1)
	b := trace.NewBatch(trace.DefaultBatchCap - 1) // chunkRecords is no multiple of it
	for i := range recs {
		want.Observe(recs[i])
		b.Append(&recs[i])
		if b.Full() {
			got.EmitBatch(b)
			b.Reset()
		}
	}
	got.EmitBatch(b)
	for name, tr := range map[string]*Tracer{"Observe": want, "EmitBatch": got} {
		if len(tr.full) != 2 || tr.kept() != n {
			t.Fatalf("%s: %d parked chunks holding %d records, want 2 and %d", name, len(tr.full), tr.kept(), n)
		}
		for _, c := range tr.full {
			if cap(c) != chunkBytes {
				t.Fatalf("%s: parked a chunk of capacity %d, want %d", name, cap(c), chunkBytes)
			}
		}
	}
	if !reflect.DeepEqual(got.Records(), recs) || !reflect.DeepEqual(want.Records(), recs) {
		t.Fatal("records differ across a chunk rollover")
	}
	if len(got.full) != 2 || len(got.free) != 0 || got.kept() != n {
		t.Fatalf("after Records: %d parked, %d free chunks, %d records, want the chunks where they were", len(got.full), len(got.free), got.kept())
	}
	if again := got.Records(); !reflect.DeepEqual(again, recs) {
		t.Fatal("a second Records call read different records")
	}
}

// TestResetParksChunks is Release's half of the chunk store (reset is
// Release without the pool, which may drop or keep the tracer as it likes):
// every chunk goes to the free list, full and the merge's run list hold no
// record memory, the run marks are cleared, and the next generation fills
// the same chunks without allocating one.
func TestResetParksChunks(t *testing.T) {
	const n = 2*chunkRecords + 100
	rng := rand.New(rand.NewSource(19))
	b := trace.NewBatch(trace.DefaultBatchCap)
	fill := func(tr *Tracer) {
		for i := 0; i < n; i++ {
			// The clock wraps every 3,000 records: a step back, so a mark.
			r := synthRecord(rng, uint64(i+1), i%3, int64(i/3%1000))
			b.Append(&r)
			if b.Full() {
				tr.EmitBatch(b)
				b.Reset()
			}
		}
		tr.EmitBatch(b)
		b.Reset()
	}
	tr := New(1)
	fill(tr)
	if len(tr.marks) != n/3000 {
		t.Fatalf("filled a tracer whose clock wraps %d times; it marked %d run starts", n/3000, len(tr.marks))
	}
	chunks := map[*byte]bool{&tr.chunk[0]: true}
	for _, c := range tr.full {
		chunks[&c[0]] = true
	}
	tr.reset()
	if len(tr.full) != 0 || len(tr.chunk) != 0 || tr.kept() != 0 {
		t.Fatalf("reset left %d parked chunks, %d records", len(tr.full), tr.kept())
	}
	if len(tr.marks) != 0 || tr.last != (mergeKey{}) {
		t.Fatalf("reset left %d run marks, last key %+v", len(tr.marks), tr.last)
	}
	for _, c := range tr.full[:cap(tr.full)] {
		if c != nil {
			t.Fatal("reset left full referencing a chunk")
		}
	}
	for _, run := range tr.runs[:cap(tr.runs)] {
		if run != nil {
			t.Fatal("reset left runs referencing record memory")
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { tr.reset(); fill(tr) }); allocs != 0 {
		t.Fatalf("refilling a reset tracer allocated %.0f times", allocs)
	}
	for _, c := range append(tr.full, tr.chunk) {
		if !chunks[&c[0]] {
			t.Fatal("refill took a chunk that was not one of the first generation's")
		}
	}
}

// TestMergeCopiesAccums verifies Merge output survives shard Release: the
// regression this guards is Merge aliasing shard-owned accumulators that a
// pooled tracer then recycles.
func TestMergeCopiesAccums(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sh1, sh2 := Acquire(1), Acquire(1)
	for i := 0; i < 300; i++ {
		sh1.Observe(synthRecord(rng, uint64(i+1), 0, int64(i)*3000))
		sh2.Observe(synthRecord(rng, uint64(i+1)<<32, 1, int64(i)*3000))
	}
	merged := Merge(1, sh1, sh2)
	wantCompute := merged.ComputeRows()
	wantStorage := merged.StorageRows()
	wantRecords := append([]trace.Record(nil), merged.Records()...)

	// Recycle the shards and dirty their successors' slabs.
	sh1.Release()
	sh2.Release()
	d := Acquire(1)
	for i := 0; i < 300; i++ {
		d.Observe(synthRecord(rng, uint64(i+977), 2, int64(i)*1500))
	}

	if !reflect.DeepEqual(merged.ComputeRows(), wantCompute) {
		t.Fatal("merged compute rows changed after shard release+reuse")
	}
	if !reflect.DeepEqual(merged.StorageRows(), wantStorage) {
		t.Fatal("merged storage rows changed after shard release+reuse")
	}
	if !reflect.DeepEqual(merged.Records(), wantRecords) {
		t.Fatal("merged records changed after shard release+reuse")
	}
	d.Release()
}

// TestDetachRecords verifies detached records survive the tracer's release
// and reuse.
func TestDetachRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := Acquire(1)
	for i := 0; i < 100; i++ {
		tr.Observe(synthRecord(rng, uint64(i+1), 3, int64(i)*9000))
	}
	recs := tr.DetachRecords()
	snapshot := append([]trace.Record(nil), recs...)
	tr.Release()
	tr2 := Acquire(1)
	for i := 0; i < 100; i++ {
		tr2.Observe(synthRecord(rng, uint64(i+1), 4, int64(i)*9000))
	}
	if !reflect.DeepEqual(recs, snapshot) {
		t.Fatal("detached records mutated by tracer reuse")
	}
	tr2.Release()
}
