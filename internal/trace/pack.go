package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"ebslab/internal/cluster"
)

// RecordSize is the length of a packed record: the one binary layout a
// record has between the tracer that keeps it and the merge that writes it
// into a dataset — a tracer's record chunks, a shard-result frame's record
// section and the merge's runs are all packed records back to back. Fields
// sit little-endian at fixed offsets, floats as their IEEE bits:
//
//	0 TraceID u64 | 8 TimeUS i64 | 16 Op u8 | 17 Size i32 | 21 Offset i64
//	| 29 DC | 33 Node | 37 User | 41 VM | 45 VD | 49 QP (i32 each)
//	| 53 WT i8 | 54 Storage i32 | 58 Segment i32 | 62 Latency 5 × f32
const RecordSize = 8 + 8 + 1 + 4 + 8 + 6*4 + 1 + 4 + 4 + 4*int(NumStages)

// Pack writes rec into dst[:RecordSize].
func Pack(rec *Record, dst []byte) {
	b, le := (*[RecordSize]byte)(dst), binary.LittleEndian
	le.PutUint64(b[0:], rec.TraceID)
	le.PutUint64(b[8:], uint64(rec.TimeUS))
	b[16] = uint8(rec.Op)
	le.PutUint32(b[17:], uint32(rec.Size))
	le.PutUint64(b[21:], uint64(rec.Offset))
	le.PutUint32(b[29:], uint32(rec.DC))
	le.PutUint32(b[33:], uint32(rec.Node))
	le.PutUint32(b[37:], uint32(rec.User))
	le.PutUint32(b[41:], uint32(rec.VM))
	le.PutUint32(b[45:], uint32(rec.VD))
	le.PutUint32(b[49:], uint32(rec.QP))
	b[53] = uint8(rec.WT)
	le.PutUint32(b[54:], uint32(rec.Storage))
	le.PutUint32(b[58:], uint32(rec.Segment))
	for s, l := range rec.Latency {
		le.PutUint32(b[62+4*s:], math.Float32bits(l))
	}
}

// PackRow writes row i of the batch into dst[:RecordSize], straight from the
// columns: the same bytes Pack writes for the row as a Record.
func PackRow(bt *Batch, i int, dst []byte) {
	b, le := (*[RecordSize]byte)(dst), binary.LittleEndian
	le.PutUint64(b[0:], bt.TraceID[i])
	le.PutUint64(b[8:], uint64(bt.TimeUS[i]))
	b[16] = uint8(bt.Op[i])
	le.PutUint32(b[17:], uint32(bt.Size[i]))
	le.PutUint64(b[21:], uint64(bt.Offset[i]))
	le.PutUint32(b[29:], uint32(bt.DC[i]))
	le.PutUint32(b[33:], uint32(bt.Node[i]))
	le.PutUint32(b[37:], uint32(bt.User[i]))
	le.PutUint32(b[41:], uint32(bt.VM[i]))
	le.PutUint32(b[45:], uint32(bt.VD[i]))
	le.PutUint32(b[49:], uint32(bt.QP[i]))
	b[53] = uint8(bt.WT[i])
	le.PutUint32(b[54:], uint32(bt.Storage[i]))
	le.PutUint32(b[58:], uint32(bt.Segment[i]))
	for s, l := range &bt.Lat[i] {
		le.PutUint32(b[62+4*s:], math.Float32bits(l))
	}
}

// Unpack reads the packed record src[:RecordSize] into rec.
func Unpack(src []byte, rec *Record) {
	b, le := (*[RecordSize]byte)(src), binary.LittleEndian
	rec.TraceID = le.Uint64(b[0:])
	rec.TimeUS = int64(le.Uint64(b[8:]))
	rec.Op = Op(b[16])
	rec.Size = int32(le.Uint32(b[17:]))
	rec.Offset = int64(le.Uint64(b[21:]))
	rec.DC = cluster.DCID(le.Uint32(b[29:]))
	rec.Node = cluster.NodeID(le.Uint32(b[33:]))
	rec.User = cluster.UserID(le.Uint32(b[37:]))
	rec.VM = cluster.VMID(le.Uint32(b[41:]))
	rec.VD = cluster.VDID(le.Uint32(b[45:]))
	rec.QP = cluster.QPID(le.Uint32(b[49:]))
	rec.WT = int8(b[53])
	rec.Storage = cluster.StorageNodeID(le.Uint32(b[54:]))
	rec.Segment = cluster.SegmentID(le.Uint32(b[58:]))
	for s := range rec.Latency {
		rec.Latency[s] = math.Float32frombits(le.Uint32(b[62+4*s:]))
	}
}

// PackedTimeUS is the TimeUS of the packed record at src.
func PackedTimeUS(src []byte) int64 { return int64(binary.LittleEndian.Uint64(src[8:16])) }

// PackedVD is the VD of the packed record at src.
func PackedVD(src []byte) cluster.VDID { return cluster.VDID(binary.LittleEndian.Uint32(src[45:49])) }

// CheckPacked rejects a packed record no simulation could have produced —
// an op other than read or write, a negative time or offset, a size ≤ 0, or
// a stage latency that is NaN, infinite or negative — naming the first rule
// it breaks. It is the one rule set for records from outside the process:
// the text trace decoders apply it to every record they read (checkRecord)
// and a fabric coordinator to every record of a shard-result frame, which is
// why the rules are tested straight on the bytes (brokenRule).
func CheckPacked(src []byte) error {
	b := (*[RecordSize]byte)(src)
	rule := brokenRule(b)
	if rule < 0 {
		return nil
	}
	var rec Record
	Unpack(src, &rec)
	switch rule {
	case ruleOp:
		return fmt.Errorf("op %d, want read or write", rec.Op)
	case ruleTime:
		return fmt.Errorf("time_us %d is negative", rec.TimeUS)
	case ruleSize:
		return fmt.Errorf("size %d, want > 0", rec.Size)
	case ruleOffset:
		return fmt.Errorf("offset %d is negative", rec.Offset)
	}
	s := rule - ruleLatency
	return fmt.Errorf("stage %d latency %g, want finite and >= 0", s, rec.Latency[s])
}

// The rules of CheckPacked, in the order brokenRule tests them; stage s's
// latency rule is ruleLatency+s.
const (
	ruleOp = iota
	ruleTime
	ruleSize
	ruleOffset
	ruleLatency
)

// brokenRule is the first rule the packed record breaks, or -1. Each field
// is read at its offset and each latency tested as its IEEE bits: a float32
// is finite and ≥ 0 exactly when its bits are below +Inf's (0x7f800000) or
// are negative zero's. The stages are unrolled: a loop over them doubled
// what validating a frame costs.
func brokenRule(b *[RecordSize]byte) int {
	le := binary.LittleEndian
	switch {
	case b[16] > uint8(OpWrite):
		return ruleOp
	case int64(le.Uint64(b[8:])) < 0:
		return ruleTime
	case int32(le.Uint32(b[17:])) <= 0:
		return ruleSize
	case int64(le.Uint64(b[21:])) < 0:
		return ruleOffset
	case badLatency(le.Uint32(b[62:])):
		return ruleLatency
	case badLatency(le.Uint32(b[66:])):
		return ruleLatency + 1
	case badLatency(le.Uint32(b[70:])):
		return ruleLatency + 2
	case badLatency(le.Uint32(b[74:])):
		return ruleLatency + 3
	case badLatency(le.Uint32(b[78:])):
		return ruleLatency + 4
	}
	return -1
}

// badLatency reports whether a latency, as its IEEE bits, is NaN, infinite
// or below zero.
func badLatency(bits uint32) bool { return bits >= 0x7f800000 && bits != 0x80000000 }
