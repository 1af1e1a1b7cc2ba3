// Package diting implements the study's tracing tool (§2.3): a Dapper-like
// per-IO tracer that samples one in every trace.SampleRate IOs into trace
// records, and a full-scale aggregator that folds *every* IO into
// second-granularity metric rows for the compute domain (per QP-WT) and the
// storage domain (per segment), following the Table 1 schema.
//
// The ingest surface is batch-first: the simulation engine emits columnar
// trace.Batch blocks through EmitBatch, and Observe remains as the
// record-at-a-time path. Metric accumulators are slab-allocated, sampled
// records are kept packed (trace.Pack's layout, the one a shard-result frame
// carries) in fixed-capacity chunks that are never regrown, and tracers are
// poolable (Acquire/Release), so steady-state ingest allocates nothing. The
// records stay packed until Merge unpacks each one, once, into the merged
// tracer's []trace.Record.
package diting

import (
	"cmp"
	"slices"
	"sync"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
	"ebslab/internal/xrand"
)

// slabBlockSize is the accumulator slab granularity: one allocation per 256
// distinct metric keys instead of one per key.
const slabBlockSize = 256

// chunkRecords is the capacity of one record chunk (2.6 MiB packed). A
// chunk boundary is one more run under the merge heap, so chunks are large:
// at 4,096 records the boundaries alone added ~100 runs to a replayed study
// and cost its merge 8 %; at 32,768 they add about ten.
const chunkRecords = 1 << 15

// chunkBytes is chunkRecords packed records.
const chunkBytes = chunkRecords * trace.RecordSize

// Tracer accumulates one observation window of trace and metric data.
// It is not safe for concurrent use; the parallel simulation engine gives
// each shard its own Tracer and combines them afterwards with Merge.
type Tracer struct {
	sampleEvery uint64
	nextID      uint64

	// Sampled records, packed, in observation order: the chunks of full,
	// then chunk, the one being filled. Only the first chunk ever grows (up
	// to chunkBytes, so a thinly sampled run stays small); after that a full
	// chunk is parked and a fresh one taken, and nothing already kept is
	// copied again. free holds emptied chunks of at least chunkBytes for the
	// tracer's next pool generation.
	chunk []byte
	full  [][]byte
	free  [][]byte

	// merged is a merged tracer's records, unpacked in canonical order: what
	// Merge wrote and Records returns. It is nil on an unmerged tracer.
	merged []trace.Record

	// marks are where the merge's sorted runs start, noted as records are
	// kept: the position, in observation order, of every record whose
	// (TimeUS, VD) key is below the one kept before it (last; the zero key
	// is below every key, so the first record needs no mark). A disk switch
	// back in time marks; a switch to a disk whose keys rise does not.
	marks []int
	last  mergeKey

	compute map[computeKey]*accum
	storage map[storageKey]*accum

	// Accumulator slab: fixed-size blocks so handed-out pointers stay valid
	// as the tracer grows, reusable across pool generations.
	slabs               [][]accum
	slabBlock, slabNext int

	// EmitBatch accumulator memo for the current second (see batch.go).
	memoSec int32
	qpMemo  []qpMemoEnt
	segMemo []segMemoEnt

	// Scratch reused across pool generations: row export sorts packed keys,
	// not whole rows; merge keeps its run list, key sample, cut table and
	// heaps. A fanned-out merge's rows task owns the first two, its records
	// task the rest.
	keyBuf  []rowKey
	accBuf  []*accum
	runs    [][]byte
	samples []mergeKey
	cuts    []int
	heap    []mergeSrc
}

// rowKey pairs a packed (sec, entity) sort key with the row's position in
// the export scratch. Sec and entity IDs are non-negative, so ordering by
// the packed uint64 equals ordering by (sec, entity).
type rowKey struct {
	k uint64
	i int32
}

type computeKey struct {
	sec int32
	qp  cluster.QPID
}

type storageKey struct {
	sec int32
	seg cluster.SegmentID
}

type accum struct {
	row trace.MetricRow
}

// New creates a tracer sampling one in sampleEvery IOs (use
// trace.SampleRate for the paper's 1/3200; values < 1 are clamped to 1).
func New(sampleEvery int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{
		sampleEvery: uint64(sampleEvery),
		compute:     make(map[computeKey]*accum),
		storage:     make(map[storageKey]*accum),
		memoSec:     -1,
	}
}

// tracerPool recycles released tracers with their maps, slabs, and record
// chunks intact.
var tracerPool = sync.Pool{New: func() any { return New(1) }}

// Acquire returns a pooled tracer configured like New(sampleEvery). Release
// it when its outputs have been merged or detached.
func Acquire(sampleEvery int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	t := tracerPool.Get().(*Tracer)
	t.sampleEvery = uint64(sampleEvery)
	return t
}

// Release resets the tracer and returns it to the pool. Anything still
// referencing its record chunks (AppendChunks) must be done with them, and
// a merged tracer's records must have been detached (DetachRecords) to
// outlive it.
func (t *Tracer) Release() {
	t.reset()
	tracerPool.Put(t)
}

// reset is Release short of the pool: the tracer is empty, its chunks parked.
func (t *Tracer) reset() {
	t.nextID = 0
	t.clearRecords()
	clear(t.compute)
	clear(t.storage)
	t.slabBlock, t.slabNext = 0, 0
	t.memoSec = -1
	t.qpMemo = t.qpMemo[:0]
	t.segMemo = t.segMemo[:0]
	t.keyBuf = t.keyBuf[:0]
	t.accBuf = t.accBuf[:0]
}

// DetachRecords returns the sampled records (Records) and removes them from
// the tracer, so the caller can retain them past a Release.
func (t *Tracer) DetachRecords() []trace.Record {
	out := t.Records()
	t.clearRecords()
	return out
}

// clearRecords empties the tracer of records: its chunks parked for reuse,
// its run marks and merged records dropped.
func (t *Tracer) clearRecords() {
	t.park()
	t.chunk, t.merged = t.chunk[:0], nil
	t.marks, t.last = t.marks[:0], mergeKey{}
}

// park empties full into the free list. Chunks under chunkBytes (a first
// chunk cut short by an outsized batch) are dropped: whatever free hands
// out must hold a whole engine batch.
func (t *Tracer) park() {
	for i, c := range t.full {
		if cap(c) >= chunkBytes {
			t.free = append(t.free, c[:0])
		}
		t.full[i] = nil
	}
	t.full = t.full[:0]
}

// reserve makes room for n more records in the current chunk and returns
// the room, n packed records long, without counting it as kept: the caller
// packs into it and then keeps what it packed (keep).
func (t *Tracer) reserve(n int) []byte {
	at, need := len(t.chunk), n*trace.RecordSize
	if at+need > cap(t.chunk) {
		t.grow(need)
		at = len(t.chunk)
	}
	return t.chunk[at : at+need]
}

// keep counts the next n packed records of the current chunk, written into
// reserve's room, as kept.
func (t *Tracer) keep(n int) {
	t.chunk = t.chunk[:len(t.chunk)+n*trace.RecordSize]
}

// grow is reserve's slow path, for need more bytes: the first chunk is
// regrown, any later one is parked whole and replaced, so records already
// kept are never copied.
func (t *Tracer) grow(need int) {
	have := len(t.chunk)
	if len(t.full) == 0 && len(t.free) == 0 && have+need <= chunkBytes {
		// The first chunk doubles, and goes to full size from half of it so
		// that the chunk a rollover parks is one the free list can reuse.
		size := max(2*cap(t.chunk), have+need)
		if size > chunkBytes/2 {
			size = chunkBytes
		}
		grown := make([]byte, have, size)
		copy(grown, t.chunk)
		t.chunk = grown
		return
	}
	if have > 0 {
		t.full = append(t.full, t.chunk)
	}
	if last := len(t.free) - 1; last >= 0 && need <= cap(t.free[last]) {
		t.chunk, t.free[last] = t.free[last], nil
		t.free = t.free[:last]
		return
	}
	t.chunk = make([]byte, 0, max(chunkBytes, need))
}

// mark notes a run start when k, the key of the record about to be kept, is
// below the last kept record's.
func (t *Tracer) mark(k mergeKey) {
	if k.before(t.last) == 1 {
		t.marks = append(t.marks, t.kept())
	}
	t.last = k
}

// kept is how many packed records the tracer holds.
func (t *Tracer) kept() int {
	n := len(t.chunk)
	for _, c := range t.full {
		n += len(c)
	}
	return n / trace.RecordSize
}

// alloc carves one accumulator out of the slab. The caller must fully
// assign its row (slab memory is recycled dirty).
func (t *Tracer) alloc() *accum {
	if t.slabBlock == len(t.slabs) {
		t.slabs = append(t.slabs, make([]accum, slabBlockSize))
	}
	blk := t.slabs[t.slabBlock]
	a := &blk[t.slabNext]
	t.slabNext++
	if t.slabNext == len(blk) {
		t.slabBlock++
		t.slabNext = 0
	}
	return a
}

// NextTraceID issues a fresh unique trace ID.
func (t *Tracer) NextTraceID() uint64 {
	t.nextID++
	return t.nextID
}

// StartStream positions the tracer's ID counter at base, so subsequent
// NextTraceID calls issue base+1, base+2, ... Sharded simulations call this
// once per virtual disk with a disk-derived base: the sampling decision
// hashes the trace ID, so disk-derived IDs make the sampled set a pure
// function of (disk, per-disk sequence) — independent of which shard or
// worker processes the disk.
func (t *Tracer) StartStream(base uint64) { t.nextID = base }

func addDirectional(row *trace.MetricRow, op trace.Op, bytes float64) {
	if op == trace.OpRead {
		row.ReadBps += bytes
		row.ReadIOPS++
	} else {
		row.WriteBps += bytes
		row.WriteIOPS++
	}
}

// sampled reports whether the IO with this trace ID is captured at the
// tracer's configured rate: a splitmix64 hash of the ID, so sampling is
// deterministic, uniform, and independent of issue order.
func (t *Tracer) sampled(id uint64) bool {
	if t.sampleEvery == 1 {
		return true
	}
	return xrand.Mix64(id)%t.sampleEvery == 0
}

// AppendChunks appends the sampled records to chunks as the tracer holds them
// — packed, its full chunks, then the one being filled — in observation
// order, nothing joined or copied, and their run starts to marks, shifted
// past the records chunks already held: what FromParts takes, and what a
// shard-result frame carries byte for byte. The chunks stay the tracer's:
// valid until it is observed into again or Released.
func (t *Tracer) AppendChunks(chunks [][]byte, marks []int) ([][]byte, []int) {
	base := 0
	for _, c := range chunks {
		base += len(c) / trace.RecordSize
	}
	for _, m := range t.marks {
		marks = append(marks, base+m)
	}
	chunks = append(chunks, t.full...)
	if len(t.chunk) > 0 {
		chunks = append(chunks, t.chunk)
	}
	return chunks, marks
}

// Records returns the sampled trace records: a merged tracer's, in canonical
// order, as Merge wrote them (the same slice each time), or an unmerged
// tracer's, in observation order, unpacked into a fresh slice on every call.
func (t *Tracer) Records() []trace.Record {
	if t.merged != nil {
		return t.merged
	}
	out := make([]trace.Record, t.kept())
	i := 0
	for c := 0; c <= len(t.full); c++ {
		packed := t.chunk
		if c < len(t.full) {
			packed = t.full[c]
		}
		for off := 0; off < len(packed); off += trace.RecordSize {
			trace.Unpack(packed[off:], &out[i])
			i++
		}
	}
	return out
}

// ComputeRows returns the compute-domain metric rows sorted by (sec, qp).
// Since rows aggregate exactly one second, the accumulated byte totals are
// already rates (bytes/s and ops/s).
func (t *Tracer) ComputeRows() []trace.MetricRow {
	t.keyBuf = t.keyBuf[:0]
	t.accBuf = t.accBuf[:0]
	for k, a := range t.compute {
		t.keyBuf = append(t.keyBuf, rowKey{uint64(uint32(k.sec))<<32 | uint64(uint32(k.qp)), int32(len(t.accBuf))})
		t.accBuf = append(t.accBuf, a)
	}
	return t.exportRows()
}

// exportRows sorts keyBuf and materializes accBuf's rows in key order. Keys
// are unique (one accumulator per map key), so the order is deterministic.
// Sorting 12-byte keys and copying each 96-byte row exactly once is far
// cheaper than comparison-sorting the rows themselves.
func (t *Tracer) exportRows() []trace.MetricRow {
	slices.SortFunc(t.keyBuf, func(a, b rowKey) int { return cmp.Compare(a.k, b.k) })
	out := make([]trace.MetricRow, len(t.keyBuf))
	for j, kv := range t.keyBuf {
		out[j] = t.accBuf[kv.i].row
	}
	return out
}

// StorageRows returns the storage-domain metric rows sorted by (sec, seg).
func (t *Tracer) StorageRows() []trace.MetricRow {
	t.keyBuf = t.keyBuf[:0]
	t.accBuf = t.accBuf[:0]
	for k, a := range t.storage {
		t.keyBuf = append(t.keyBuf, rowKey{uint64(uint32(k.sec))<<32 | uint64(uint32(k.seg)), int32(len(t.accBuf))})
		t.accBuf = append(t.accBuf, a)
	}
	return t.exportRows()
}
