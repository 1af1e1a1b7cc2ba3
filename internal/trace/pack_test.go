package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ebslab/internal/cluster"
)

// edgeRecords are records at the ends of every field's range: maximum and
// negative IDs, a negative worker thread, and latencies whose bits a
// float64 round trip or a careless compare would change (NaN payloads,
// negative zero, infinities, subnormals).
func edgeRecords() []Record {
	nan := math.Float32frombits(0x7fc0_1234)
	sub := math.Float32frombits(1)
	return []Record{
		{},
		{
			TraceID: math.MaxUint64, TimeUS: math.MaxInt64, Op: OpWrite, Size: math.MaxInt32, Offset: math.MaxInt64,
			DC: math.MaxInt32, Node: math.MaxInt32, User: math.MaxInt32, VM: math.MaxInt32, VD: math.MaxInt32,
			QP: math.MaxInt32, WT: math.MaxInt8, Storage: math.MaxInt32, Segment: math.MaxInt32,
			Latency: [NumStages]float32{math.MaxFloat32, sub, float32(math.Inf(1)), 0, 1},
		},
		{
			TraceID: 1, TimeUS: math.MinInt64, Op: 0xff, Size: math.MinInt32, Offset: -1,
			DC: -1, Node: math.MinInt32, User: -7, VM: -1, VD: math.MinInt32, QP: -3, WT: -1,
			Storage: math.MinInt32, Segment: -1,
			Latency: [NumStages]float32{nan, float32(math.Copysign(0, -1)), float32(math.Inf(-1)), -sub, -math.MaxFloat32},
		},
		{WT: math.MinInt8, VD: 35, TimeUS: 59_999_999, Latency: [NumStages]float32{12.5, 0.25, 80, 3, 400.125}},
	}
}

// sameBits compares two records field by field, latencies through their
// bits, so NaN equals itself and negative zero does not equal zero.
func sameBits(a, b *Record) bool {
	la, lb := a.Latency, b.Latency
	for s := range la {
		if math.Float32bits(la[s]) != math.Float32bits(lb[s]) {
			return false
		}
	}
	a2, b2 := *a, *b
	a2.Latency, b2.Latency = [NumStages]float32{}, [NumStages]float32{}
	return a2 == b2
}

// TestPackRoundTrip holds Unpack(Pack(r)) to r bit for bit, and the key
// readers to the fields they read, for edge and random records.
func TestPackRoundTrip(t *testing.T) {
	recs := edgeRecords()
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 200; i++ {
		recs = append(recs, randRecord(rng))
	}
	buf := make([]byte, RecordSize)
	for i := range recs {
		Pack(&recs[i], buf)
		var got Record
		Unpack(buf, &got)
		if !sameBits(&got, &recs[i]) {
			t.Fatalf("record %d: Unpack(Pack(r)) = %+v, want %+v", i, got, recs[i])
		}
		if PackedTimeUS(buf) != recs[i].TimeUS || PackedVD(buf) != recs[i].VD {
			t.Fatalf("record %d: key readers give (%d, %d), want (%d, %d)", i, PackedTimeUS(buf), PackedVD(buf), recs[i].TimeUS, recs[i].VD)
		}
	}
}

// TestPackLayout pins the packed layout to the shard-result frame's record:
// 82 bytes, little-endian, TimeUS at 8, VD at 45, latencies from 62.
func TestPackLayout(t *testing.T) {
	if RecordSize != 82 {
		t.Fatalf("RecordSize is %d, want 82", RecordSize)
	}
	rec := Record{TraceID: 0x0102030405060708, TimeUS: 0x1112131415161718, Op: OpWrite, VD: 0x21222324, WT: -2}
	rec.Latency[NumStages-1] = math.Float32frombits(0x31323334)
	buf := make([]byte, RecordSize)
	Pack(&rec, buf)
	for _, f := range []struct {
		off  int
		want []byte
	}{
		{0, []byte{8, 7, 6, 5, 4, 3, 2, 1}},
		{8, []byte{0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11}},
		{16, []byte{1}},
		{45, []byte{0x24, 0x23, 0x22, 0x21}},
		{53, []byte{0xfe}},
		{78, []byte{0x34, 0x33, 0x32, 0x31}},
	} {
		if got := buf[f.off : f.off+len(f.want)]; !bytes.Equal(got, f.want) {
			t.Errorf("bytes at %d = %x, want %x", f.off, got, f.want)
		}
	}
}

// TestPackRowMatchesPack holds PackRow, which packs straight from a batch's
// columns, to Pack of the same row as a Record.
func TestPackRowMatchesPack(t *testing.T) {
	recs := edgeRecords()
	rng := rand.New(rand.NewSource(39))
	for len(recs) < 64 {
		recs = append(recs, randRecord(rng))
	}
	b := NewBatch(len(recs))
	for i := range recs {
		b.Append(&recs[i])
	}
	want, got := make([]byte, RecordSize), make([]byte, RecordSize)
	for i := range recs {
		Pack(&recs[i], want)
		PackRow(b, i, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("row %d: PackRow wrote %x, Pack %x", i, got, want)
		}
	}
}

// TestCheckPacked holds CheckPacked to the trace decoders' rules: every edit
// that breaks one is refused, naming the field, and the records at the edges
// of what is allowed are accepted.
func TestCheckPacked(t *testing.T) {
	good := Record{TimeUS: 5, Op: OpWrite, Size: 4096, Offset: 0, VD: cluster.VDID(3)}
	good.Latency = [NumStages]float32{1, 2, 3, 4, 5}
	buf := make([]byte, RecordSize)
	for name, edit := range map[string]func(*Record){
		"as is":               func(r *Record) {},
		"read at time zero":   func(r *Record) { r.Op, r.TimeUS = OpRead, 0 },
		"zero latencies":      func(r *Record) { r.Latency = [NumStages]float32{} },
		"negative zero":       func(r *Record) { r.Latency[3] = float32(math.Copysign(0, -1)) },
		"largest and tiniest": func(r *Record) { r.Latency[0], r.Latency[4] = math.MaxFloat32, math.SmallestNonzeroFloat32 },
		"negative IDs":        func(r *Record) { r.VD, r.WT, r.Node = -1, -8, -3 },
	} {
		rec := good
		edit(&rec)
		Pack(&rec, buf)
		if err := CheckPacked(buf); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	type bad struct {
		edit func(*Record)
		says string
	}
	cases := map[string]bad{
		"op 2":            {func(r *Record) { r.Op = 2 }, "op 2"},
		"op 255":          {func(r *Record) { r.Op = 255 }, "op 255"},
		"negative time":   {func(r *Record) { r.TimeUS = -1 }, "time_us -1"},
		"zero size":       {func(r *Record) { r.Size = 0 }, "size 0"},
		"negative size":   {func(r *Record) { r.Size = -4096 }, "size -4096"},
		"negative offset": {func(r *Record) { r.Offset = -1 }, "offset -1"},
		"two broken":      {func(r *Record) { r.Size, r.Latency[1] = 0, -1 }, "size 0"},
	}
	for s := 0; s < int(NumStages); s++ {
		stage := fmt.Sprintf("stage %d latency", s)
		cases[stage+" NaN"] = bad{func(r *Record) { r.Latency[s] = float32(math.NaN()) }, stage + " NaN"}
		cases[stage+" +Inf"] = bad{func(r *Record) { r.Latency[s] = float32(math.Inf(1)) }, stage + " +Inf"}
		cases[stage+" -Inf"] = bad{func(r *Record) { r.Latency[s] = float32(math.Inf(-1)) }, stage + " -Inf"}
		cases[stage+" negative"] = bad{func(r *Record) { r.Latency[s] = -math.SmallestNonzeroFloat32 }, stage + " -1e-45"}
	}
	for name, c := range cases {
		rec := good
		c.edit(&rec)
		Pack(&rec, buf)
		if err := CheckPacked(buf); err == nil || !strings.Contains(err.Error(), c.says) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.says)
		}
	}
}
