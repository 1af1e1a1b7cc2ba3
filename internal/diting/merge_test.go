package diting

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
)

// How a test hands a tracer its records — and so who marks the runs.
const (
	viaEmitBatch = "EmitBatch" // the tracer marks them as it keeps a batch
	viaObserve   = "Observe"   // the tracer marks them record by record
	viaParts     = "FromParts" // hand-cut chunks, marked the way a decoder marks a frame
)

// tagged copies streams, numbering every record by its position in the
// concatenation (Offset) so that two records of equal key are still
// distinguishable and a stability slip shows as a mismatch.
func tagged(streams [][]trace.Record) [][]trace.Record {
	out := make([][]trace.Record, len(streams))
	seq := int64(0)
	for i, s := range streams {
		out[i] = make([]trace.Record, len(s))
		for j, r := range s {
			r.Offset = seq
			seq++
			out[i][j] = r
		}
	}
	return out
}

// pack is recs in trace.Pack's layout, back to back.
func pack(recs []trace.Record) []byte {
	out := make([]byte, len(recs)*trace.RecordSize)
	for i := range recs {
		trace.Pack(&recs[i], out[i*trace.RecordSize:])
	}
	return out
}

// descents is where a decoder walking recs marks run starts: every record
// that StartsRun after the one before it.
func descents(recs []trace.Record) []int {
	var marks []int
	packed := pack(recs)
	for i := 1; i < len(recs); i++ {
		if StartsRun(packed[(i-1)*trace.RecordSize:i*trace.RecordSize], packed[i*trace.RecordSize:]) {
			marks = append(marks, i)
		}
	}
	return marks
}

// cut splits s into chunks of size records. A stream that size divides ends
// in an empty chunk, as a frame of no records decodes to one.
func cut(s []trace.Record, size int) [][]trace.Record {
	var chunks [][]trace.Record
	for ; len(s) >= size; s = s[size:] {
		chunks = append(chunks, s[:size])
	}
	return append(chunks, s)
}

// partsOf is a FromParts tracer over chunks, packed, marked as a decoder
// marks their concatenation.
func partsOf(chunks [][]trace.Record) *Tracer {
	var all []trace.Record
	packed := make([][]byte, len(chunks))
	for i, c := range chunks {
		all = append(all, c...)
		packed[i] = pack(c)
	}
	return FromParts(1, packed, descents(all), nil, nil)
}

// writeTracer hands stream to a fresh fully sampling tracer via the named
// path. EmitBatch writes batches of batch records, Observe one record at a
// time, both into chunks of chunk records: the tracer is lent chunk-sized
// free chunks, so it rolls over where it would at chunkRecords, a batch that
// does not fit parking a part-filled chunk. FromParts cuts the stream into
// chunk-record chunks. chunk 0 leaves the chunking to the tracer (one chunk
// for FromParts).
func writeTracer(stream []trace.Record, via string, chunk, batch int) *Tracer {
	if via == viaParts {
		if chunk == 0 {
			return partsOf([][]trace.Record{stream})
		}
		return partsOf(cut(stream, chunk))
	}
	t := New(1)
	if chunk > 0 {
		batch = min(batch, chunk)
		t.chunk = make([]byte, 0, chunk*trace.RecordSize)
		for i := 0; i <= len(stream)/min(batch, chunk); i++ {
			t.free = append(t.free, make([]byte, 0, chunk*trace.RecordSize))
		}
	}
	if via == viaObserve {
		for _, r := range stream {
			t.Observe(r)
		}
		return t
	}
	b := trace.NewBatch(batch)
	for i := range stream {
		b.Append(&stream[i])
		if b.Full() {
			t.EmitBatch(b)
			b.Reset()
		}
	}
	t.EmitBatch(b)
	return t
}

// checkMergeAgainstStableSort merges shards at every partition count 1..8
// through the unexported entry point and requires each result to equal the
// reference: a stable sort of the concatenation by (TimeUS, VD), renumbered
// 1..N.
func checkMergeAgainstStableSort(t *testing.T, shards []*Tracer) {
	t.Helper()
	var want []trace.Record
	for _, sh := range shards {
		want = append(want, sh.Records()...)
	}
	sort.SliceStable(want, func(i, j int) bool {
		a, b := &want[i], &want[j]
		return a.TimeUS < b.TimeUS || a.TimeUS == b.TimeUS && a.VD < b.VD
	})
	for i := range want {
		want[i].TraceID = uint64(i + 1)
	}
	for parts := 1; parts <= 8; parts++ {
		out := mergeInto(New(1), parts, shards, nil)
		if len(out.full) != 0 || len(out.chunk) != 0 {
			t.Fatalf("parts=%d: merged tracer holds %d parked chunks and %d packed bytes, want its records in one unpacked slice", parts, len(out.full), len(out.chunk))
		}
		got := out.merged
		if len(got) != len(want) {
			t.Fatalf("parts=%d: merged %d records, want %d", parts, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parts=%d: record %d = %+v, want %+v", parts, i, got[i], want[i])
			}
		}
		for _, run := range out.runs[:cap(out.runs)] {
			if run != nil {
				t.Fatalf("parts=%d: merge scratch still references shard records", parts)
			}
		}
	}
}

// checkWriters writes streams through every path — EmitBatch and Observe
// into chunks of 1, 2, 7 and 1000 records and into the tracer's own, and
// hand-cut FromParts chunks of the same sizes — and holds each merge to the
// stable sort. A tracer that marked its own runs must have marked exactly
// where a decoder would: chunk rollovers add no mark, and a Records call
// (every other layout has one first) leaves the tracer as it was. Streams of over 10,000 records take one- and two-record chunks
// through FromParts only: a run per record or two is the same merge whoever
// cut it, and slow under the race detector.
func checkWriters(t *testing.T, streams [][]trace.Record) {
	t.Helper()
	streams = tagged(streams)
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	for _, via := range []string{viaEmitBatch, viaObserve, viaParts} {
		for li, chunk := range []int{0, 1, 2, 7, 1000} {
			if chunk <= 2 && n > 10_000 && via != viaParts {
				continue
			}
			batch := []int{trace.DefaultBatchCap, 1, 3, 5, 64}[li]
			shards := make([]*Tracer, len(streams))
			for i, s := range streams {
				shards[i] = writeTracer(s, via, chunk, batch)
				if via != viaParts && !slices.Equal(shards[i].marks, descents(s)) {
					t.Fatalf("%s chunk=%d batch=%d: tracer %d marked %v, want %v", via, chunk, batch, i, shards[i].marks, descents(s))
				}
				if li%2 == 1 {
					shards[i].Records()
				}
			}
			t.Run(fmt.Sprintf("%s/chunk=%d", via, chunk), func(t *testing.T) {
				checkMergeAgainstStableSort(t, shards)
			})
		}
	}
}

func rec(timeUS int64, vd int) trace.Record {
	return trace.Record{TimeUS: timeUS, VD: cluster.VDID(vd)}
}

func TestMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// Per-disk streams the way a foreign replay can produce them: mostly
	// ascending, with steps back in time and repeated timestamps.
	replayed := func(vd, n int) []trace.Record {
		s := make([]trace.Record, n)
		now := int64(0)
		for i := range s {
			switch rng.Intn(8) {
			case 0:
				now -= int64(rng.Intn(50))
			case 1, 2:
			default:
				now += int64(rng.Intn(20))
			}
			s[i] = rec(now, vd)
		}
		return s
	}
	descending := make([]trace.Record, 3000)
	for i := range descending {
		descending[i] = rec(int64(len(descending)-i), i%3)
	}
	// One hot disk and many cold ones, dealt to two shards as the engine
	// deals them: the shape the partitioning exists for.
	var skewA, skewB []trace.Record
	for vd := 0; vd < 40; vd++ {
		n := 20000 / (vd + 1)
		s := make([]trace.Record, n)
		now := int64(0)
		for i := range s {
			now += int64(rng.Intn(2*600000/n + 1))
			s[i] = rec(now, vd)
		}
		if vd%2 == 0 {
			skewA = append(skewA, s...)
		} else {
			skewB = append(skewB, s...)
		}
	}

	cases := []struct {
		name    string
		streams [][]trace.Record
	}{
		{"no tracers", nil},
		{"empty tracers", [][]trace.Record{nil, {}, nil}},
		{"one record", [][]trace.Record{nil, {rec(7, 3)}}},
		{"one tracer", [][]trace.Record{append(replayed(0, 500), replayed(1, 700)...)}},
		{"equal keys split across runs of one tracer", [][]trace.Record{
			{rec(5, 1), rec(5, 1), rec(3, 1), rec(5, 1), rec(5, 0), rec(5, 1), rec(2, 9)},
			{rec(5, 1), rec(5, 1)},
		}},
		{"replayed disk steps back between equal keys", [][]trace.Record{
			{rec(1, 4), rec(5, 4), rec(5, 4), rec(5, 4), rec(2, 4), rec(5, 4), rec(5, 4), rec(6, 4), rec(5, 4), rec(5, 4)},
			{rec(5, 3), rec(5, 3), rec(0, 3), rec(5, 3)},
		}},
		{"keys rise across disk switches", [][]trace.Record{
			{rec(1, 0), rec(4, 0), rec(4, 1), rec(6, 1), rec(6, 2), rec(9, 5)},
			{rec(2, 3), rec(5, 3), rec(5, 6), rec(7, 7)},
		}},
		{"all keys equal", [][]trace.Record{make([]trace.Record, 100), make([]trace.Record, 50)}},
		{"thousands of length-1 runs", [][]trace.Record{descending, descending[:1000]}},
		{"replayed disks across tracers", [][]trace.Record{
			append(replayed(4, 900), replayed(2, 40)...), nil, replayed(3, 2000), append(replayed(1, 5), replayed(0, 1200)...),
		}},
		{"negative keys", [][]trace.Record{{rec(-5, -2), rec(-5, 1), rec(0, -1)}, {rec(-9, 0), rec(-5, -2), rec(1<<40, 7)}}},
		{"skewed disks", [][]trace.Record{skewA, skewB}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkWriters(t, c.streams) })
	}

	// Chunks cut by hand: a chunk boundary may fall anywhere and must change
	// nothing.
	chunked := []struct {
		name   string
		layout [][][]trace.Record
	}{
		{"boundary inside a run", [][][]trace.Record{
			{{rec(1, 0), rec(2, 0), rec(3, 0)}, {rec(4, 0), rec(5, 0), rec(1, 1)}, {rec(2, 1)}},
			{{rec(2, 0), rec(3, 2)}, {rec(4, 2)}},
		}},
		{"boundary between equal keys", [][][]trace.Record{
			{{rec(5, 1), rec(5, 1)}, {rec(5, 1), rec(5, 1), rec(5, 0)}, {rec(5, 0), rec(5, 1)}},
			{{rec(5, 1)}, {rec(5, 1), rec(5, 0)}},
		}},
		{"empty trailing chunk", [][][]trace.Record{
			{{rec(1, 0), rec(4, 0)}, {rec(6, 0), rec(2, 1)}, {}},
			{{rec(3, 2), rec(5, 2)}, nil},
		}},
		{"one record per chunk", [][][]trace.Record{
			{{rec(3, 0)}, {rec(3, 0)}, {rec(1, 1)}, {rec(9, 1)}},
			{{rec(2, 2)}, {rec(3, 0)}, {rec(0, 3)}},
		}},
	}
	for _, c := range chunked {
		t.Run(c.name, func(t *testing.T) {
			shards := make([]*Tracer, len(c.layout))
			for i, chunks := range c.layout {
				shards[i] = partsOf(chunks)
			}
			checkMergeAgainstStableSort(t, shards)
		})
	}
}

// TestTracerMarksRunStarts pins what a tracer marks on the layouts the merge
// depends on, through both writers: a step back in time (between equal keys
// too) marks, a disk switch marks only where the key falls, a chunk
// rollover adds nothing, DetachRecords clears the marks, and a sampling
// tracer marks among the records it keeps.
func TestTracerMarksRunStarts(t *testing.T) {
	stream := []trace.Record{
		rec(1, 0), rec(4, 0), rec(4, 0), // disk 0
		rec(4, 1), rec(9, 1), // disk 1: its keys rise across the switch
		rec(9, 1), rec(3, 1), rec(9, 1), // a step back between equal keys
		rec(2, 2), rec(7, 2), // disk 2 starts back in time
	}
	want := []int{6, 8}
	for _, via := range []string{viaEmitBatch, viaObserve} {
		for _, chunk := range []int{0, 1, 3, 4} {
			tr := writeTracer(stream, via, chunk, 2)
			if !slices.Equal(tr.marks, want) {
				t.Fatalf("%s chunk=%d: marked %v, want %v", via, chunk, tr.marks, want)
			}
			tr.DetachRecords()
			if len(tr.marks) != 0 || tr.last != (mergeKey{}) {
				t.Fatalf("%s chunk=%d: DetachRecords left marks %v", via, chunk, tr.marks)
			}
			tr.Observe(rec(0, 0)) // first record again: nothing to mark
			if len(tr.marks) != 0 {
				t.Fatalf("%s chunk=%d: a detached tracer marked its first record", via, chunk)
			}
		}
	}

	// A sampling tracer marks among the records it keeps: a kept record below
	// the last kept one, whatever it skipped in between.
	rng := rand.New(rand.NewSource(29))
	var sampled []trace.Record
	for vd := 0; vd < 6; vd++ {
		now := int64(0)
		for i := 0; i < 400; i++ {
			now += int64(rng.Intn(40)) - 8
			sampled = append(sampled, synthRecord(rng, uint64(len(sampled)+1), vd, now))
		}
	}
	for _, via := range []string{viaEmitBatch, viaObserve} {
		tr := New(4)
		b := trace.NewBatch(trace.DefaultBatchCap)
		for i := range sampled {
			if via == viaObserve {
				tr.Observe(sampled[i])
				continue
			}
			b.Append(&sampled[i])
			if b.Full() {
				tr.EmitBatch(b)
				b.Reset()
			}
		}
		tr.EmitBatch(b)
		if want := descents(tr.Records()); len(want) < 6 || !slices.Equal(tr.marks, want) {
			t.Fatalf("%s at 1/4: marked %v, want %v", via, tr.marks, want)
		}
	}
}

// TestMergeWithExportsRowsBeside holds MergeWith's rows task to the serial
// export: at every fan-out, rows sees the merged metric rows, once, and the
// merged tracer's records and rows equal Merge's. The rows task and the
// records task share the destination tracer, so under the race detector
// (`make race`) this is the test that they touch disjoint parts of it.
func TestMergeWithExportsRowsBeside(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var streams [][]trace.Record
	for sh := 0; sh < 3; sh++ {
		var s []trace.Record
		for vd := sh; vd < 12; vd += 3 {
			now := int64(0)
			for i := 0; i < 1500; i++ {
				now += int64(rng.Intn(8000))
				s = append(s, synthRecord(rng, uint64(len(s)+1), vd, now))
			}
		}
		streams = append(streams, s)
	}
	shards := make([]*Tracer, len(streams))
	for i, s := range streams {
		shards[i] = writeTracer(s, viaEmitBatch, 0, trace.DefaultBatchCap)
	}
	want := Merge(1, shards...)
	wantRecs, wantCompute, wantStorage := want.Records(), want.ComputeRows(), want.StorageRows()
	for parts := 1; parts <= 4; parts++ {
		var calls int
		var compute, storage []trace.MetricRow
		got := mergeInto(Acquire(1), parts, shards, func(m *Tracer) {
			calls++
			compute, storage = m.ComputeRows(), m.StorageRows()
		})
		if calls != 1 {
			t.Fatalf("parts=%d: rows ran %d times", parts, calls)
		}
		if !reflect.DeepEqual(compute, wantCompute) || !reflect.DeepEqual(storage, wantStorage) {
			t.Fatalf("parts=%d: rows exported beside the merge differ from Merge's", parts)
		}
		if !reflect.DeepEqual(got.Records(), wantRecs) || !reflect.DeepEqual(got.ComputeRows(), wantCompute) {
			t.Fatalf("parts=%d: merged tracer differs from Merge's", parts)
		}
		got.Release()
	}
}

// TestMergePartitionsBalanced pins what splitting by key buys: on disks as
// skewed as the paper's — one holding 45 % of the records — every partition
// still gets its share, within 15 %.
func TestMergePartitionsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{90000, 30000, 25000, 18000}
	for len(sizes) < 80 {
		sizes = append(sizes, 100+rng.Intn(900))
	}
	streams := make([][]trace.Record, 2)
	n := 0
	for vd, size := range sizes {
		now := int64(0)
		for i := 0; i < size; i++ {
			now += int64(rng.Intn(2*60_000_000/size + 1))
			streams[vd%2] = append(streams[vd%2], rec(now, vd))
		}
		n += size
	}
	shards := make([]*Tracer, len(streams))
	for i, s := range streams {
		shards[i] = writeTracer(s, viaEmitBatch, 0, trace.DefaultBatchCap)
	}
	for parts := 2; parts <= 8; parts++ {
		out := mergeInto(New(1), parts, shards, nil)
		nr := len(out.cuts) / (parts + 1)
		for p := 0; p < parts; p++ {
			size := 0
			for r := 0; r < nr; r++ {
				size += out.cuts[(p+1)*nr+r] - out.cuts[p*nr+r]
			}
			if want := n / parts; size < want*85/100 || size > want*115/100 {
				t.Errorf("parts=%d: partition %d holds %d records, want %d ±15%%", parts, p, size, want)
			}
		}
	}
}

// FuzzMergeRuns decodes arbitrary bytes into tracers of short, duplicate-
// heavy records and holds the merge to the stable-sort reference at every
// partition count. batch picks who marks the runs. 0: the records are freely
// out of order (signed bytes as times) and sit in hand-cut FromParts chunks
// marked as a decoder marks them. 1..: the records are disk streams that step
// back in time wherever a byte is negative, written through EmitBatch in
// batches of up to 16 records, the tracer marking its own runs; the tracer's
// marks are also held to the decoder's.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0), uint8(0))
	f.Add([]byte{1, 0, 1, 0, 0, 1, 1, 0}, uint8(2), uint8(0), uint8(0))
	f.Add([]byte{1, 0, 1, 0, 0, 1, 1, 0}, uint8(2), uint8(2), uint8(0))
	f.Add([]byte{9, 1, 8, 1, 7, 1, 7, 1, 200, 3, 7, 1, 6, 130}, uint8(3), uint8(1), uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(7), uint8(3), uint8(0))
	f.Add([]byte{5, 0, 0, 0, 251, 0, 0, 0, 3, 1, 250, 1, 0, 1, 9, 2}, uint8(1), uint8(2), uint8(3))
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 4, 1, 4, 255, 4, 0, 4, 2, 7, 240, 7, 16, 7}, uint8(2), uint8(3), uint8(1))
	f.Add([]byte("EmitBatch rolls chunks mid-disk and disks step back in time"), uint8(3), uint8(4), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, tracers, chunk, batch uint8) {
		streams := make([][]trace.Record, int(tracers%8)+1)
		n := len(data) / 2
		now := int64(0)
		for i := 0; i < n; i++ {
			s := i * len(streams) / n
			vd := int(int8(data[2*i+1]) % 4)
			if batch == 0 {
				// Signed bytes: few distinct keys, negative ones included.
				streams[s] = append(streams[s], rec(int64(int8(data[2*i])), vd))
				continue
			}
			// A step of the disk's clock: back when negative, none at zero.
			now += int64(int8(data[2*i]))
			streams[s] = append(streams[s], rec(now, vd+4*s))
		}
		streams = tagged(streams)
		// chunk picks how many records a tracer's chunks hold: 0 leaves the
		// chunking to the tracer (or one FromParts chunk), 1..4 cut it so
		// boundaries fall inside runs and between equal keys.
		size := int(chunk % 5)
		shards := make([]*Tracer, len(streams))
		for i, s := range streams {
			if batch == 0 {
				shards[i] = writeTracer(s, viaParts, size, 0)
				continue
			}
			shards[i] = writeTracer(s, viaEmitBatch, size, int(batch%16)+1)
			if !slices.Equal(shards[i].marks, descents(s)) {
				t.Fatalf("tracer %d marked %v, want %v", i, shards[i].marks, descents(s))
			}
		}
		checkMergeAgainstStableSort(t, shards)
	})
}
