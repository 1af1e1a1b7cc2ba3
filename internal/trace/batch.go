package trace

import (
	"sync"

	"ebslab/internal/cluster"
)

// DefaultBatchCap is the row capacity of pooled batches: large enough to
// amortize per-flush work, small enough that a batch (~100 KiB) stays cache-
// and pool-friendly.
const DefaultBatchCap = 1024

// Batch is a fixed-capacity columnar (structure-of-arrays) block of trace
// records: one parallel slice per Record field, each sized to the batch
// capacity with rows [0, Len()) valid. The simulation hot path fills batches
// field by field and hands them to batched consumers (diting.Tracer.EmitBatch,
// sketch.Set.ObserveBatch), which stream down each column without
// materializing Record structs. Columns are exported for exactly that access
// pattern; use Next/Append to advance the row count.
//
// A Batch is not safe for concurrent use. Batches produced by the engine
// hold rows of a single virtual disk in event order — consumers may exploit
// the run structure but must stay correct without it.
type Batch struct {
	TraceID []uint64
	TimeUS  []int64
	Op      []Op
	Size    []int32
	Offset  []int64
	DC      []cluster.DCID
	Node    []cluster.NodeID
	User    []cluster.UserID
	VM      []cluster.VMID
	VD      []cluster.VDID
	QP      []cluster.QPID
	WT      []int8
	Storage []cluster.StorageNodeID
	Segment []cluster.SegmentID
	Lat     [][NumStages]float32

	n int
}

// NewBatch allocates an empty batch with the given row capacity.
func NewBatch(capacity int) *Batch {
	if capacity < 1 {
		capacity = 1
	}
	return &Batch{
		TraceID: make([]uint64, capacity),
		TimeUS:  make([]int64, capacity),
		Op:      make([]Op, capacity),
		Size:    make([]int32, capacity),
		Offset:  make([]int64, capacity),
		DC:      make([]cluster.DCID, capacity),
		Node:    make([]cluster.NodeID, capacity),
		User:    make([]cluster.UserID, capacity),
		VM:      make([]cluster.VMID, capacity),
		VD:      make([]cluster.VDID, capacity),
		QP:      make([]cluster.QPID, capacity),
		WT:      make([]int8, capacity),
		Storage: make([]cluster.StorageNodeID, capacity),
		Segment: make([]cluster.SegmentID, capacity),
		Lat:     make([][NumStages]float32, capacity),
	}
}

// Len returns the number of valid rows.
func (b *Batch) Len() int { return b.n }

// Cap returns the row capacity.
func (b *Batch) Cap() int { return len(b.TimeUS) }

// Full reports whether the batch has no free rows.
func (b *Batch) Full() bool { return b.n == len(b.TimeUS) }

// Reset empties the batch, keeping its columns for reuse.
func (b *Batch) Reset() { b.n = 0 }

// Next reserves the next row and returns its index; the caller fills every
// column at that index. The batch must not be full.
func (b *Batch) Next() int {
	i := b.n
	b.n++
	return i
}

// Append copies one record into the next row and returns its index. The
// batch must not be full. It is the record-at-a-time adapter onto the
// columnar layout; hot paths fill columns directly via Next.
func (b *Batch) Append(rec *Record) int {
	i := b.Next()
	b.TraceID[i] = rec.TraceID
	b.TimeUS[i] = rec.TimeUS
	b.Op[i] = rec.Op
	b.Size[i] = rec.Size
	b.Offset[i] = rec.Offset
	b.DC[i] = rec.DC
	b.Node[i] = rec.Node
	b.User[i] = rec.User
	b.VM[i] = rec.VM
	b.VD[i] = rec.VD
	b.QP[i] = rec.QP
	b.WT[i] = rec.WT
	b.Storage[i] = rec.Storage
	b.Segment[i] = rec.Segment
	b.Lat[i] = rec.Latency
	return i
}

// TotalLatencyAt sums row i's per-stage latencies in stage order, exactly as
// Record.TotalLatency does.
func (b *Batch) TotalLatencyAt(i int) float64 {
	var t float64
	for _, l := range b.Lat[i] {
		t += float64(l)
	}
	return t
}

// batchPool recycles DefaultBatchCap batches; odd-sized batches (tests use
// tiny capacities to force flush boundaries) are allocated fresh.
var batchPool = sync.Pool{New: func() any { return NewBatch(DefaultBatchCap) }}

// GetBatch returns an empty batch with the given row capacity, pooled when
// the capacity is DefaultBatchCap. Release it when done.
func GetBatch(capacity int) *Batch {
	if capacity == DefaultBatchCap {
		b := batchPool.Get().(*Batch)
		b.Reset()
		return b
	}
	return NewBatch(capacity)
}

// Release returns the batch to the pool. The batch (and any views into its
// columns) must not be used after Release.
func (b *Batch) Release() {
	if b.Cap() == DefaultBatchCap {
		batchPool.Put(b)
	}
}
