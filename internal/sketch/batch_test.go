package sketch

import (
	"math/rand"
	"runtime"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
)

// synthBatchRecords builds an engine-shaped stream: per-VD runs of records
// in time order.
func synthBatchRecords(seed int64, nVDs, perVD int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	var out []trace.Record
	for vd := 0; vd < nVDs; vd++ {
		timeUS := int64(0)
		for i := 0; i < perVD; i++ {
			timeUS += int64(rng.Intn(30_000))
			rec := trace.Record{
				TraceID: uint64(vd+1)<<40 + uint64(i+1),
				TimeUS:  timeUS,
				Op:      trace.Op(rng.Intn(2)),
				Size:    int32((rng.Intn(64) + 1) * 4096),
				Offset:  rng.Int63n(1 << 32),
				VD:      cluster.VDID(vd),
				Segment: cluster.SegmentID(vd*16 + rng.Intn(16)),
			}
			for st := range rec.Latency {
				rec.Latency[st] = float32(rng.Float64() * 800)
			}
			out = append(out, rec)
		}
	}
	return out
}

// TestObserveBatchEquivalence requires identical fingerprints from the
// batched and record-at-a-time ingest paths, across batch capacities that
// force flush boundaries inside and across VD runs.
func TestObserveBatchEquivalence(t *testing.T) {
	recs := synthBatchRecords(5, 7, 400)
	cfg := Config{TopK: 8, SegPerVD: 4, DurationSec: 16}

	want := NewSet(cfg)
	for i := range recs {
		want.Observe(&recs[i])
	}
	wantFP := want.Fingerprint()

	for _, capacity := range []int{1, 5, 256, trace.DefaultBatchCap} {
		got := NewSet(cfg)
		b := trace.GetBatch(capacity)
		for i := range recs {
			b.Append(&recs[i])
			if b.Full() {
				got.ObserveBatch(b)
				b.Reset()
			}
		}
		got.ObserveBatch(b)
		b.Release()
		if fp := got.Fingerprint(); fp != wantFP {
			t.Fatalf("cap %d: fingerprint %s != record-at-a-time %s", capacity, fp, wantFP)
		}
		if got.Totals() != want.Totals() {
			t.Fatalf("cap %d: totals %+v != %+v", capacity, got.Totals(), want.Totals())
		}
	}
}

// TestObserveBatchMemoryIsFleetBounded is the O(1)-memory evidence for the
// streaming path: a fresh Set ingesting 8,192 engine-shaped records over 32
// disks through ObserveBatch, and one ingesting the same records eight times
// over (65,536), must allocate the same number of times and the same bytes
// within one page. Sketch state is bounded by the fleet and the value
// domain, never by the number of records. The budget is the 132 allocations
// measured (about 30 KB, at either count) plus 15 %.
func TestObserveBatchMemoryIsFleetBounded(t *testing.T) {
	recs := synthBatchRecords(11, 32, 256)
	var batches []*trace.Batch
	for i := range recs {
		if i == 0 || batches[len(batches)-1].Full() || recs[i].VD != recs[i-1].VD {
			batches = append(batches, trace.NewBatch(trace.DefaultBatchCap))
		}
		batches[len(batches)-1].Append(&recs[i])
	}
	ingest := func(passes int) (allocs, bytes uint64) {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			set := NewSet(Config{DurationSec: 64})
			for p := 0; p < passes; p++ {
				for _, b := range batches {
					set.ObserveBatch(b)
				}
			}
			if got, want := set.Totals().IOs, uint64(passes*len(recs)); got != want {
				t.Fatalf("ingested %d records, want %d", got, want)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := ingest(1)
	largeAllocs, largeBytes := ingest(8)
	const budget = 151
	if smallAllocs > budget {
		t.Errorf("a Set ingesting 8,192 records allocates %d times, budget is %d", smallAllocs, budget)
	}
	if largeAllocs != smallAllocs {
		t.Errorf("8x the records took %d allocations, not %d: the sketch allocates per record", largeAllocs, smallAllocs)
	}
	if largeBytes > smallBytes+4096 {
		t.Errorf("8x the records took %d bytes, not %d: the sketch grows with the trace", largeBytes, smallBytes)
	}
}
