package fabric

import (
	"bytes"
	"testing"
	"unsafe"

	"ebslab/internal/cluster"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
	"ebslab/internal/wire/wiretest"
)

// Sections of a shard partial, as bits of samplePartial's argument.
const (
	secRecords = 1 << iota
	secCompute
	secStorage
	secSketch
	secEmission
	secAudit
	secAll = 1<<iota - 1
)

// samplePartial builds a small literal partial carrying the chosen sections;
// every field of every element is non-zero and distinct so a swapped or
// dropped field changes the frame.
func samplePartial(sections int) *ebs.ShardPartial {
	p := &ebs.ShardPartial{Lo: 3, Hi: 9}
	p.Chaos.FaultedIOs, p.Chaos.StormIOs = 17, -4
	rec := func(i int) trace.Record {
		r := trace.Record{
			TraceID: 0xA1B2C3D4E5F60000 + uint64(i), TimeUS: 1_000_000*int64(i) + 7, Op: trace.Op(i % 2),
			Size: 4096 * int32(i+1), Offset: 1<<33 + int64(i)*4096,
			DC: 1, Node: cluster.NodeID(2 + i), User: 3, VM: 4, VD: cluster.VDID(5 + i), QP: 6, WT: -1,
			Storage: 8, Segment: cluster.SegmentID(9 + i),
		}
		for s := range r.Latency {
			r.Latency[s] = 10.5*float32(s+1) + float32(i)
		}
		return r
	}
	row := func(d trace.Domain, i int) trace.MetricRow {
		return trace.MetricRow{
			Domain: d, Sec: int32(i), DC: 1, User: 2, VM: 3, VD: cluster.VDID(4 + i),
			Node: 5, QP: 6, WT: 7, Storage: 8, Segment: 9,
			ReadBps: 1.5e6 + float64(i), WriteBps: 2.25e6, ReadIOPS: 300.125, WriteIOPS: 0.5,
		}
	}
	if sections&secRecords != 0 {
		recs := []trace.Record{rec(0), rec(1), rec(2)}
		p.Records = make([]byte, len(recs)*trace.RecordSize)
		for i := range recs {
			trace.Pack(&recs[i], p.Records[i*trace.RecordSize:])
		}
	}
	if sections&secCompute != 0 {
		p.Compute = []trace.MetricRow{row(trace.DomainCompute, 0), row(trace.DomainCompute, 1)}
	}
	if sections&secStorage != 0 {
		p.Storage = []trace.MetricRow{row(trace.DomainStorage, 2)}
	}
	if sections&secSketch != 0 {
		p.Sketch = sketch.NewSet(sketch.Config{TopK: 4, SegPerVD: 2, HLLPrecision: 4, DurationSec: 3})
		for i := 0; i < 6; i++ {
			r := rec(i)
			p.Sketch.Observe(&r)
		}
	}
	if sections&secEmission != 0 {
		p.Emission = []invariant.VDEmission{
			{Events: 11, ReadOps: 5, WriteOps: 6, ReadBytes: 20480, WriteBytes: 24576},
			{Events: 1, WriteOps: 1, WriteBytes: 4096},
		}
	}
	if sections&secAudit != 0 {
		p.Audit = []string{"VD 3: demo finding", "", "VD 8: another"}
	}
	return p
}

// TestEncodingsUnchanged pins the shard-result and ledger-command frames to
// the bytes captured under testdata/encodings (result-full embeds an SKS2
// sketch set).
func TestEncodingsUnchanged(t *testing.T) {
	wiretest.CheckEncoding(t, "result-full", encodeResult(42, 7, samplePartial(secAll)))
	wiretest.CheckEncoding(t, "result-empty", encodeResult(1, 0, samplePartial(0)))
	frame := encodeResult(2, 1, samplePartial(secRecords|secAudit))
	wiretest.CheckEncoding(t, "command-result", encodeCommand(&command{Kind: cmdResult, Worker: 2, At: 1_700_000_000_123_456_789, Frame: frame}))
	wiretest.CheckEncoding(t, "command-assign", encodeCommand(&command{Kind: cmdAssign, Worker: 7, At: -9}))
}

// TestEncodeResultExactSize holds the encoder to its own arithmetic and to
// sending the records from where they lie: for every section combination,
// the parts concatenate to exactly the command-header room plus resultSize
// bytes; the middle parts are p.Chunks() themselves, not copies of them;
// head and tail lie back to back in one buffer that the tail fills to its
// capacity, so it was never regrown; and, the sketch's own encoding aside,
// encoding allocates twice: that buffer and the list of parts. The parts of
// the two pinned partials concatenate to the pinned result-*.hex frames
// behind the header room.
func TestEncodeResultExactSize(t *testing.T) {
	for sections := 0; sections <= secAll; sections++ {
		p := samplePartial(sections)
		sketchLen := 0
		if p.Sketch != nil {
			sketchLen = len(p.Sketch.EncodeBinary())
		}
		parts, err := resultParts(42, 7, p)
		if err != nil {
			t.Fatal(err)
		}
		if size := commandHeaderLen + resultSize(p, sketchLen); len(bytes.Join(parts, nil)) != size {
			t.Fatalf("sections %06b: the parts join to %d bytes, header room plus resultSize says %d", sections, len(bytes.Join(parts, nil)), size)
		}
		want := p.Chunks()
		if len(parts) != len(want)+2 {
			t.Fatalf("sections %06b: %d parts, want head, p's %d chunks and tail", sections, len(parts), len(want))
		}
		for i := range want {
			if got := parts[1+i]; len(got) != len(want[i]) || len(want[i]) > 0 && &got[0] != &want[i][0] {
				t.Fatalf("sections %06b: part %d is not p's chunk %d", sections, 1+i, i)
			}
		}
		head, tail := parts[0], parts[len(parts)-1]
		if len(head) != resultHeadLen || len(tail) == 0 || unsafe.Add(unsafe.Pointer(&head[0]), resultHeadLen) != unsafe.Pointer(&tail[0]) {
			t.Fatalf("sections %06b: head (%d bytes) and tail (%d bytes) are not one buffer's two ends", sections, len(head), len(tail))
		}
		if cap(tail) != len(tail) {
			t.Fatalf("sections %06b: tail is %d bytes of a %d-byte buffer: head and tail were not sized exactly", sections, len(tail), cap(tail))
		}
		if p.Sketch != nil {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { resultParts(42, 7, p) }); allocs != 2 {
			t.Fatalf("sections %06b: encoding allocated %.0f times, want 2 (the head-and-tail buffer, the list of parts)", sections, allocs)
		}
	}
	wiretest.CheckEncoding(t, "result-full", joinedPayload(42, 7, samplePartial(secAll))[commandHeaderLen:])
	wiretest.CheckEncoding(t, "result-empty", joinedPayload(1, 0, samplePartial(0))[commandHeaderLen:])
}
