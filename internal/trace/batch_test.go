package trace

import (
	"math/rand"
	"testing"

	"ebslab/internal/cluster"
)

// randRecord synthesizes an arbitrary record from the rng.
func randRecord(rng *rand.Rand) Record {
	rec := Record{
		TraceID: rng.Uint64(),
		TimeUS:  rng.Int63n(1 << 40),
		Op:      Op(rng.Intn(2)),
		Size:    int32(rng.Intn(4<<20) &^ 4095),
		Offset:  rng.Int63n(1 << 42),
		DC:      cluster.DCID(rng.Intn(4)),
		Node:    cluster.NodeID(rng.Intn(100)),
		User:    cluster.UserID(rng.Intn(50)),
		VM:      cluster.VMID(rng.Intn(200)),
		VD:      cluster.VDID(rng.Intn(300)),
		QP:      cluster.QPID(rng.Intn(900)),
		WT:      int8(rng.Intn(16)),
		Storage: cluster.StorageNodeID(rng.Intn(40)),
		Segment: cluster.SegmentID(rng.Intn(2000)),
	}
	for s := range rec.Latency {
		rec.Latency[s] = float32(rng.Float64() * 1000)
	}
	return rec
}

// rowOf reads row i of b back as a Record, column by column.
func rowOf(b *Batch, i int) Record {
	return Record{
		TraceID: b.TraceID[i], TimeUS: b.TimeUS[i], Op: b.Op[i], Size: b.Size[i], Offset: b.Offset[i],
		DC: b.DC[i], Node: b.Node[i], User: b.User[i], VM: b.VM[i], VD: b.VD[i], QP: b.QP[i], WT: b.WT[i],
		Storage: b.Storage[i], Segment: b.Segment[i], Latency: b.Lat[i],
	}
}

// TestBatchRoundTrip checks Append/rowOf field fidelity across every column.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBatch(64)
	var want []Record
	for i := 0; i < 64; i++ {
		rec := randRecord(rng)
		want = append(want, rec)
		if got := b.Append(&rec); got != i {
			t.Fatalf("Append returned row %d, want %d", got, i)
		}
	}
	if !b.Full() || b.Len() != 64 {
		t.Fatalf("batch Len=%d Full=%v after filling capacity 64", b.Len(), b.Full())
	}
	for i, w := range want {
		if got := rowOf(b, i); got != w {
			t.Fatalf("row %d: %+v != %+v", i, got, w)
		}
		if gt, wt := b.TotalLatencyAt(i), w.TotalLatency(); gt != wt {
			t.Fatalf("row %d: TotalLatencyAt %v != %v", i, gt, wt)
		}
	}
	b.Reset()
	if b.Len() != 0 || b.Full() {
		t.Fatalf("Len=%d Full=%v after Reset", b.Len(), b.Full())
	}
}

// TestBatchPool checks pooled acquisition: default-capacity batches come
// back empty with full capacity; odd capacities allocate fresh.
func TestBatchPool(t *testing.T) {
	b := GetBatch(DefaultBatchCap)
	rng := rand.New(rand.NewSource(2))
	rec := randRecord(rng)
	for !b.Full() {
		b.Append(&rec)
	}
	b.Release()

	b2 := GetBatch(DefaultBatchCap)
	if b2.Len() != 0 || b2.Cap() != DefaultBatchCap {
		t.Fatalf("pooled batch Len=%d Cap=%d, want 0/%d", b2.Len(), b2.Cap(), DefaultBatchCap)
	}
	b2.Release()

	small := GetBatch(7)
	if small.Cap() != 7 || small.Len() != 0 {
		t.Fatalf("custom batch Len=%d Cap=%d, want 0/7", small.Len(), small.Cap())
	}
	small.Release() // no-op for non-default capacity
}

// FuzzBatch drives append/reset/pool-reuse from a byte script against a
// plain []Record reference model and requires identical contents at every
// step.
func FuzzBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4, 5, 0, 0, 6}, int64(1))
	f.Add([]byte{0}, int64(2))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 0, 9}, int64(3))
	f.Fuzz(func(t *testing.T, script []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 8 // tiny, to exercise Full boundaries often
		b := GetBatch(capacity)
		defer b.Release()
		var ref []Record
		check := func() {
			if b.Len() != len(ref) {
				t.Fatalf("Len %d != ref %d", b.Len(), len(ref))
			}
			for i, w := range ref {
				if got := rowOf(b, i); got != w {
					t.Fatalf("row %d: %+v != %+v", i, got, w)
				}
			}
		}
		for _, op := range script {
			switch {
			case op == 0: // reset
				b.Reset()
				ref = ref[:0]
			case op%3 == 1: // pool round-trip (non-default cap: contents must survive release+reacquire semantics don't apply; simulate by fresh)
				b.Reset()
				ref = ref[:0]
				b.Release()
				b = GetBatch(capacity)
			default: // append (flushing the reference model when full)
				if b.Full() {
					b.Reset()
					ref = ref[:0]
				}
				rec := randRecord(rng)
				i := b.Append(&rec)
				if i != len(ref) {
					t.Fatalf("Append row %d, ref has %d", i, len(ref))
				}
				ref = append(ref, rec)
			}
			check()
		}
	})
}
