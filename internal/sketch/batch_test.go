package sketch

import (
	"math/rand"
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
