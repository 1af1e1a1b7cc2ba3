package fabric

import (
	"encoding/json"
	"errors"
	"fmt"

	"ebslab/internal/cluster"
	"ebslab/internal/diting"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
	"ebslab/internal/wire"
)

// ErrWire reports a malformed fabric message.
var ErrWire = errors.New("fabric: malformed message")

// JoinReply answers a worker's JoinFleet: its assigned identity plus the run
// description itself. The worker opens the spec — regenerating the fleet and
// binding the scenario from their recipes, both deterministic — so the join
// payload stays small and the worker's view is bit-identical. Stream carries
// the sketch configuration (nil = no streaming) beside the spec because a live
// *sketch.Set cannot cross the wire: each worker builds its own destination
// set from it.
type JoinReply struct {
	WorkerID    uint64
	Spec        ebs.RunSpec
	Stream      *sketch.Config `json:",omitempty"`
	HeartbeatMS int64
}

// open is the worker's side of the join: the spec's simulator and options,
// streaming into a fresh sketch set of the shipped configuration.
func (j JoinReply) open() (*ebs.Sim, ebs.Options, error) {
	spec := j.Spec
	if j.Stream != nil {
		spec.Opts.Stream = sketch.NewSet(*j.Stream)
	}
	return spec.Open()
}

// Assignment statuses.
const (
	// AssignShard hands the worker a shard to execute.
	AssignShard = "shard"
	// AssignWait means nothing is placeable on this worker right now (it
	// already attempted every pending shard); poll again shortly.
	AssignWait = "wait"
	// AssignDone means every shard is accounted for; the worker may leave.
	AssignDone = "done"
)

// workerMsg is the generic worker-identified request body (AssignShard,
// Heartbeat, Drain).
type workerMsg struct {
	WorkerID uint64
}

// AssignReply answers AssignShard.
type AssignReply struct {
	Status string
	Shard  int
	Lo, Hi int
}

// resultReply answers ShardResult. Accepted is false when at-most-once
// accounting dropped the result as a duplicate.
type resultReply struct {
	Accepted bool
}

// RedirectReply is the payload of a StatusRedirect response: the answering
// replica's best knowledge of who leads the control plane, by replica ID.
// Known is false mid-election.
type RedirectReply struct {
	Leader int
	Known  bool
}

// decodeRedirect parses a redirect payload, tolerating malformed hints (a
// worker falls back to round-robin probing when ok is false).
func decodeRedirect(info []byte) (r RedirectReply, ok bool) {
	if err := fromJSON(info, &r); err != nil {
		return RedirectReply{}, false
	}
	return r, true
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("fabric: marshal %T: %v", v, err))
	}
	return b
}

func fromJSON(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: %v", ErrWire, err)
	}
	return nil
}

// --- ShardResult binary codec ---------------------------------------------
//
// The result frame is the fabric's bulk path: a whole shard's sampled trace
// records, metric rows, sketch state, and accounting. Floats travel as raw
// IEEE bits so the coordinator merges exactly the values the worker
// computed — a lossy text encoding here would break the byte-identical
// dataset guarantee. A record is trace.RecordSize bytes in trace.Pack's
// layout, the one the worker's tracers keep their records in and the
// coordinator's merge reads: the worker writes its tracer chunks onto the
// connection as they are (resultParts), and the coordinator merges straight
// out of the frame.
//
//	payload: commandHeaderLen bytes the leader stamps (fsm.go) | frame
//	frame: u64 workerID | u32 shardID | partial
//	partial: u32 lo | u32 hi
//	       | u32 nRec  | nRec  * record
//	       | u32 nComp | nComp * metricRow
//	       | u32 nStor | nStor * metricRow
//	       | u8 hasSketch [| u32 len | sketch.Set binary]
//	       | chaos: u64 faultedIOs | u64 stormIOs
//	       | u32 nEmit | nEmit * (5 * u64)
//	       | u32 nAudit | nAudit * (u32 len | bytes)

const (
	metricRowWire = 1 + 4 + 8*4 + 1 + 4*8
	emissionWire  = 5 * 8
)

// checkRecords validates a frame's packed records in place and returns
// where their sorted runs start (diting.StartsRun). A record fails the frame
// when trace.CheckPacked refuses it — the rules the text trace decoders
// apply — or when its VD lies outside the shard's [lo, hi): the merge is
// exact only because each disk's records all come from the one shard that
// owns the disk.
func checkRecords(r *wire.Reader, recs []byte, lo, hi int) (marks []int) {
	const size = trace.RecordSize
	for i, off := 0, 0; off < len(recs); i, off = i+1, off+size {
		rec := recs[off : off+size]
		if vd := int(trace.PackedVD(rec)); vd < lo || vd >= hi {
			r.Fail("record %d: VD %d outside the shard's [%d,%d)", i, vd, lo, hi)
			return nil
		}
		if err := trace.CheckPacked(rec); err != nil {
			r.Fail("record %d: %v", i, err)
			return nil
		}
		if off > 0 && diting.StartsRun(recs[off-size:off], rec) {
			marks = append(marks, i)
		}
	}
	return marks
}

func appendMetricRow(w *wire.Writer, row *trace.MetricRow) {
	w.U8(uint8(row.Domain))
	w.I32(row.Sec)
	w.I32(int32(row.DC))
	w.I32(int32(row.User))
	w.I32(int32(row.VM))
	w.I32(int32(row.VD))
	w.I32(int32(row.Node))
	w.I32(int32(row.QP))
	w.U8(uint8(row.WT))
	w.I32(int32(row.Storage))
	w.I32(int32(row.Segment))
	w.F64(row.ReadBps)
	w.F64(row.WriteBps)
	w.F64(row.ReadIOPS)
	w.F64(row.WriteIOPS)
}

func readMetricRow(r *wire.Reader) trace.MetricRow {
	var row trace.MetricRow
	row.Domain = trace.Domain(r.U8())
	row.Sec = r.I32()
	row.DC = cluster.DCID(r.I32())
	row.User = cluster.UserID(r.I32())
	row.VM = cluster.VMID(r.I32())
	row.VD = cluster.VDID(r.I32())
	row.Node = cluster.NodeID(r.I32())
	row.QP = cluster.QPID(r.I32())
	row.WT = int8(r.U8())
	row.Storage = cluster.StorageNodeID(r.I32())
	row.Segment = cluster.SegmentID(r.I32())
	row.ReadBps = r.F64()
	row.WriteBps = r.F64()
	row.ReadIOPS = r.F64()
	row.WriteIOPS = r.F64()
	if row.Domain > trace.DomainStorage {
		r.Fail("metric row domain %d", row.Domain)
	}
	return row
}

// recordCount is how many packed records p's chunks hold.
func recordCount(p *ebs.ShardPartial) int {
	n := 0
	for _, chunk := range p.Chunks() {
		n += len(chunk)
	}
	return n / trace.RecordSize
}

// resultHeadLen is the bytes of an OpShardResult payload in front of its
// records: the command-header room and the frame's workerID, shardID, lo,
// hi and record count.
const resultHeadLen = commandHeaderLen + 8 + 4 + 4 + 4 + 4

// tailSize is the exact length of p's frame behind its records, given its
// encoded sketch's length (0 without one).
func tailSize(p *ebs.ShardPartial, sketchLen int) int {
	n := 4 + len(p.Compute)*metricRowWire +
		4 + len(p.Storage)*metricRowWire +
		1 + // hasSketch
		8 + 8 + // chaos
		4 + len(p.Emission)*emissionWire +
		4 + 4*len(p.Audit)
	if p.Sketch != nil {
		n += 4 + sketchLen
	}
	for _, s := range p.Audit {
		n += len(s)
	}
	return n
}

// resultSize is the exact length of p's frame, given its encoded sketch's
// length (0 without one).
func resultSize(p *ebs.ShardPartial, sketchLen int) int {
	return resultHeadLen - commandHeaderLen + recordCount(p)*trace.RecordSize + tailSize(p, sketchLen)
}

// encodeSketch is p's sketch state in wire form, nil without one.
func encodeSketch(p *ebs.ShardPartial) []byte {
	if p.Sketch == nil {
		return nil
	}
	return p.Sketch.EncodeBinary()
}

// resultParts is the OpShardResult request body for p as the parts a worker
// writes onto the connection back to back (netblock.Client.Call takes them
// as they are): first the head, commandHeaderLen bytes the worker leaves
// unset and then the frame up to its records; then p's tracer chunks,
// aliased — the records are already packed, in the order they were
// emitted, so they are not copied; last the tail, the rest of the frame.
// Head and tail share one allocation of their exact size. The leader stamps
// the ledger-command header over the reserved bytes and proposes the
// payload as it arrived, so the frame is never copied into a command. A
// payload over the wire cap is refused here, by its exact size, before
// anything frame-sized is allocated or encoded. The chunks stay p's:
// release p only once the parts have been written.
func resultParts(workerID uint64, shardID int, p *ebs.ShardPartial) ([][]byte, error) {
	enc := encodeSketch(p)
	if need := commandHeaderLen + resultSize(p, len(enc)); need > netblock.MaxShardResultPayload {
		return nil, fmt.Errorf("fabric: shard %d result is %d bytes, over the %d-byte wire cap: rerun with more shards (fewer VDs per shard)",
			shardID, need, netblock.MaxShardResultPayload)
	}
	w := &wire.Writer{B: make([]byte, commandHeaderLen, resultHeadLen+tailSize(p, len(enc)))}
	w.U64(workerID)
	w.U32(uint32(shardID))
	w.U32(uint32(p.Lo))
	w.U32(uint32(p.Hi))
	w.U32(uint32(recordCount(p)))
	w.U32(uint32(len(p.Compute)))
	for i := range p.Compute {
		appendMetricRow(w, &p.Compute[i])
	}
	w.U32(uint32(len(p.Storage)))
	for i := range p.Storage {
		appendMetricRow(w, &p.Storage[i])
	}
	w.Bool(p.Sketch != nil)
	if p.Sketch != nil {
		w.U32(uint32(len(enc)))
		w.Bytes(enc)
	}
	w.I64(p.Chaos.FaultedIOs)
	w.I64(p.Chaos.StormIOs)
	w.U32(uint32(len(p.Emission)))
	for i := range p.Emission {
		e := &p.Emission[i]
		w.I64(e.Events)
		w.I64(e.ReadOps)
		w.I64(e.WriteOps)
		w.I64(e.ReadBytes)
		w.I64(e.WriteBytes)
	}
	w.U32(uint32(len(p.Audit)))
	for _, s := range p.Audit {
		w.U32(uint32(len(s)))
		w.B = append(w.B, s...)
	}
	chunks := p.Chunks()
	parts := append(make([][]byte, 0, len(chunks)+2), w.B[:resultHeadLen:resultHeadLen])
	parts = append(parts, chunks...)
	return append(parts, w.B[resultHeadLen:]), nil
}

// decodeResult parses one shard-result frame. Every section length is
// validated against the bytes actually present before allocation, and
// trailing bytes are rejected: a frame either decodes completely or not at
// all. The records are not copied: the partial's Records aliases the
// frame's record section once checkRecords has validated it in place and
// noted the run starts (ShardPartial.Marks), which are not shipped: the
// frame's bytes stay what they were.
func decodeResult(data []byte) (workerID uint64, shardID int, p *ebs.ShardPartial, err error) {
	r := wire.NewReader(data, ErrWire)
	workerID = r.U64()
	shardID = int(r.U32())
	p = &ebs.ShardPartial{}
	p.Lo = int(r.U32())
	p.Hi = int(r.U32())
	if n := r.Count(trace.RecordSize); n > 0 {
		p.Records = r.Take(n * trace.RecordSize)
		p.Marks = checkRecords(r, p.Records, p.Lo, p.Hi)
	}
	if n := r.Count(metricRowWire); n > 0 {
		p.Compute = make([]trace.MetricRow, n)
		for i := range p.Compute {
			p.Compute[i] = readMetricRow(r)
		}
	}
	if n := r.Count(metricRowWire); n > 0 {
		p.Storage = make([]trace.MetricRow, n)
		for i := range p.Storage {
			p.Storage[i] = readMetricRow(r)
		}
	}
	switch has := r.U8(); has {
	case 0:
	case 1:
		enc := r.Take(r.Count(1))
		if r.Err() == nil {
			set, serr := sketch.DecodeSet(enc)
			if serr != nil {
				return 0, 0, nil, fmt.Errorf("%w: sketch: %v", ErrWire, serr)
			}
			p.Sketch = set
		}
	default:
		r.Fail("sketch flag %d", has)
	}
	p.Chaos.FaultedIOs = r.I64()
	p.Chaos.StormIOs = r.I64()
	if n := r.Count(emissionWire); n > 0 {
		p.Emission = make([]invariant.VDEmission, n)
		for i := range p.Emission {
			e := &p.Emission[i]
			e.Events = r.I64()
			e.ReadOps = r.I64()
			e.WriteOps = r.I64()
			e.ReadBytes = r.I64()
			e.WriteBytes = r.I64()
		}
	}
	if n := r.Count(4); n > 0 {
		p.Audit = make([]string, n)
		for i := range p.Audit {
			p.Audit[i] = string(r.Take(r.Count(1)))
		}
	}
	if err := r.Done(); err != nil {
		return 0, 0, nil, err
	}
	if p.Lo < 0 || p.Hi < p.Lo {
		return 0, 0, nil, fmt.Errorf("%w: shard range [%d,%d)", ErrWire, p.Lo, p.Hi)
	}
	return workerID, shardID, p, nil
}
