package diting

import (
	"math/rand"
	"sort"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
)

// shardsOf wraps record streams in tracers, one chunk each.
func shardsOf(streams ...[]trace.Record) []*Tracer {
	layout := make([][][]trace.Record, len(streams))
	for i, s := range streams {
		layout[i] = [][]trace.Record{s}
	}
	return shardsOfChunks(layout)
}

// shardsOfChunks builds one tracer per entry of layout holding exactly the
// chunks listed (the last is the one being filled), tagging every record
// with its position in the concatenation (Offset) so that two records of
// equal key are still distinguishable and a stability slip shows as a
// mismatch.
func shardsOfChunks(layout [][][]trace.Record) []*Tracer {
	shards := make([]*Tracer, len(layout))
	seq := int64(0)
	for i, chunks := range layout {
		shards[i] = New(1)
		for c, chunk := range chunks {
			tagged := make([]trace.Record, len(chunk))
			for j, r := range chunk {
				r.Offset = seq
				seq++
				tagged[j] = r
			}
			if c < len(chunks)-1 {
				shards[i].full = append(shards[i].full, tagged)
			} else {
				shards[i].records = tagged
			}
		}
	}
	return shards
}

// rechunk cuts each stream into chunks of size records. A stream that size
// divides ends in an empty chunk, as a tracer that has just rolled over does.
func rechunk(streams [][]trace.Record, size int) [][][]trace.Record {
	layout := make([][][]trace.Record, len(streams))
	for i, s := range streams {
		for ; len(s) >= size; s = s[size:] {
			layout[i] = append(layout[i], s[:size])
		}
		layout[i] = append(layout[i], s)
	}
	return layout
}

// concat is a tracer's records in observation order, without disturbing its
// chunks the way Records does.
func concat(t *Tracer) []trace.Record {
	var all []trace.Record
	for _, c := range t.full {
		all = append(all, c...)
	}
	return append(all, t.records...)
}

// checkMergeAgainstStableSort merges shards at every partition count 1..8
// through the unexported entry point and requires each result to equal the
// reference: a stable sort of the concatenation by (TimeUS, VD), renumbered
// 1..N.
func checkMergeAgainstStableSort(t *testing.T, shards []*Tracer) {
	t.Helper()
	var want []trace.Record
	for _, sh := range shards {
		want = append(want, concat(sh)...)
	}
	sort.SliceStable(want, func(i, j int) bool {
		a, b := &want[i], &want[j]
		return a.TimeUS < b.TimeUS || a.TimeUS == b.TimeUS && a.VD < b.VD
	})
	for i := range want {
		want[i].TraceID = uint64(i + 1)
	}
	for parts := 1; parts <= 8; parts++ {
		out := mergeInto(New(1), parts, shards)
		if len(out.full) != 0 {
			t.Fatalf("parts=%d: merged tracer holds %d parked chunks, want its records in one", parts, len(out.full))
		}
		got := out.records
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
		{"all keys equal", [][]trace.Record{make([]trace.Record, 100), make([]trace.Record, 50)}},
		{"thousands of length-1 runs", [][]trace.Record{descending, descending[:1000]}},
		{"replayed disks across tracers", [][]trace.Record{
			append(replayed(4, 900), replayed(2, 40)...), nil, replayed(3, 2000), append(replayed(1, 5), replayed(0, 1200)...),
		}},
		{"negative keys", [][]trace.Record{{rec(-5, -2), rec(-5, 1), rec(0, -1)}, {rec(-9, 0), rec(-5, -2), rec(1<<40, 7)}}},
		{"skewed disks", [][]trace.Record{skewA, skewB}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkMergeAgainstStableSort(t, shardsOf(c.streams...))
			// The same streams held in several chunks per tracer: a chunk
			// boundary may fall anywhere and must change nothing.
			for _, size := range []int{1, 2, 7, 1000} {
				checkMergeAgainstStableSort(t, shardsOfChunks(rechunk(c.streams, size)))
			}
		})
	}

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
			checkMergeAgainstStableSort(t, shardsOfChunks(c.layout))
		})
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
	shards := shardsOf(streams...)
	for parts := 2; parts <= 8; parts++ {
		out := mergeInto(New(1), parts, shards)
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
// heavy, freely out-of-order records, held whole or in chunks of a few
// records, and holds the merge to the stable-sort reference at every
// partition count.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{1, 0, 1, 0, 0, 1, 1, 0}, uint8(2), uint8(0))
	f.Add([]byte{1, 0, 1, 0, 0, 1, 1, 0}, uint8(2), uint8(2))
	f.Add([]byte{9, 1, 8, 1, 7, 1, 7, 1, 200, 3, 7, 1, 6, 130}, uint8(3), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, tracers, chunk uint8) {
		streams := make([][]trace.Record, int(tracers%8)+1)
		n := len(data) / 2
		for i := 0; i < n; i++ {
			// Signed bytes: few distinct keys, negative ones included.
			r := rec(int64(int8(data[2*i])), int(int8(data[2*i+1])%4))
			s := i * len(streams) / n
			streams[s] = append(streams[s], r)
		}
		// chunk picks how many records a tracer's chunks hold: 0 keeps each
		// stream whole, 1..4 cut it so boundaries fall inside runs and
		// between equal keys.
		if size := int(chunk % 5); size > 0 {
			checkMergeAgainstStableSort(t, shardsOfChunks(rechunk(streams, size)))
			return
		}
		checkMergeAgainstStableSort(t, shardsOf(streams...))
	})
}
