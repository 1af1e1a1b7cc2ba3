package diting

import (
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"ebslab/internal/trace"
)

const (
	// parallelMergeMin is the fewest records worth a goroutine of their own.
	parallelMergeMin = 1 << 12
	// samplesPerPart keys per partition are sampled to choose its splitter.
	samplesPerPart = 512
)

// Merge combines shard tracers into one: metric accumulators are merged by
// key (summing rates when shards touched the same key), trace records are
// merged into canonical order — the stable (TimeUS, VD) order of the shards'
// records concatenated in argument order — and trace IDs are reassigned 1..N
// in that order. Because each virtual disk is processed whole by exactly one
// shard, same-VD records arrive contiguous and in generation order, which
// that order preserves, so the merged output is byte-identical no matter how
// disks were distributed across shards. Rows are copied into the destination
// and records unpacked into it, each once, so the shards may be Released
// afterwards (they must not be observed into again regardless). The merged
// tracer holds its records unpacked (Records, DetachRecords), not packed: it
// is not itself a shard for another Merge. min(GOMAXPROCS, shards)
// goroutines share the records, the caller's among them, parallelMergeMin or
// more to each.
func Merge(sampleEvery int, shards ...*Tracer) *Tracer {
	return MergeWith(sampleEvery, shards, nil)
}

// MergeWith is Merge that also hands the merged tracer to rows once its metric
// rows are merged, while its records may still be merging: the caller exports
// the rows there (ComputeRows, StorageRows) beside the record merge. rows must
// touch nothing of the tracer but its rows, and has returned when MergeWith
// does. A nil rows is Merge.
func MergeWith(sampleEvery int, shards []*Tracer, rows func(merged *Tracer)) *Tracer {
	n := 0
	for _, sh := range shards {
		n += sh.kept()
	}
	parts := min(runtime.GOMAXPROCS(0), len(shards), n/parallelMergeMin)
	return mergeInto(Acquire(sampleEvery), parts, shards, rows)
}

// mergeKey packs (TimeUS, VD, run number) so that hi:lo orders, as one
// unsigned 128-bit number, as the triple does (sign bits are flipped). The
// zero key orders before every record's.
type mergeKey struct{ hi, lo uint64 }

// keyOf is the key of the packed record at rec, in run number run.
func keyOf(rec []byte, run int) mergeKey {
	return mergeKey{uint64(trace.PackedTimeUS(rec)) ^ 1<<63, uint64(uint32(trace.PackedVD(rec))^1<<31)<<32 | uint64(uint32(run))}
}

// StartsRun reports whether the packed record rec, written right after the
// packed record prev, starts a new sorted run for the merge: its (TimeUS, VD)
// key is below prev's. A writer that hands records to FromParts marks every
// record it holds true for.
func StartsRun(prev, rec []byte) bool {
	return keyOf(rec, 0).before(keyOf(prev, 0)) == 1
}

// before is 1 when a orders before b, else 0, without a branch: a merge's
// comparisons are coin flips, and mispredicting them is most of a heap's cost.
func (a mergeKey) before(b mergeKey) int {
	_, borrow := bits.Sub64(a.lo, b.lo, 0)
	_, borrow = bits.Sub64(a.hi, b.hi, borrow)
	return int(borrow)
}

// mergeInto is MergeWith into a destination tracer fresh from New or Acquire,
// with the records merged in parts key ranges, one goroutine each.
//
// Nothing is sorted and no record is read to find what is already sorted: a
// shard's records are a sequence of sorted runs, one per disk (more where a
// replayed trace steps back in time), and whoever wrote them marked each
// run's start (Tracer.marks: the tracer as it kept the record, or what
// FromParts was handed). A run ends at the next mark or where
// the shard's chunk does, so equal keys share a run in their original order,
// and runs are numbered in concatenation order: merging by (key, run number)
// is the stable sort of the concatenation whatever the runs look like — and
// wherever the chunk boundaries fall. Disks are skewed, so the work is
// divided by key, not by run: every run is cut at its first record >= each of
// parts-1 splitters drawn from an evenly spaced sample. One key's records
// land in one partition, which sees every run's slice under the run's number
// and writes from where the cuts below it end — partitions are independent
// and stability survives the split.
//
// A single part runs on the caller's goroutine, step after step. From two
// parts up, the metric rows (merge, then rows) are a task of their own on
// another goroutine, beside the records' planning, output allocation and
// partitions; they share the destination tracer, each its own fields of it.
func mergeInto(t *Tracer, parts int, shards []*Tracer, rows func(*Tracer)) *Tracer {
	n := 0
	for _, sh := range shards {
		n += sh.kept()
	}
	parts = max(1, min(parts, n))
	var rowsDone chan struct{}
	if parts > 1 {
		rowsDone = make(chan struct{})
		go func() {
			defer close(rowsDone)
			t.mergeRows(shards, rows)
		}()
	} else {
		t.mergeRows(shards, rows)
	}
	runs, cuts := t.plan(shards, n, parts)
	nr := len(runs)
	out := make([]trace.Record, n)
	heap := slices.Grow(t.heap[:0], parts*nr)[:parts*nr]
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			mergePartition(out, runs, cuts[p*nr:(p+2)*nr], heap[p*nr:p*nr:(p+1)*nr])
		}(p)
	}
	mergePartition(out, runs, cuts[:2*nr], heap[:0:nr])
	wg.Wait()
	clear(runs) // pooled scratch must not pin the shards' record buffers
	t.runs, t.cuts, t.heap = runs[:0], cuts, heap
	t.merged, t.nextID = out, uint64(n)
	if rowsDone != nil {
		<-rowsDone
	}
	return t
}

// mergeRows folds the shards' metric accumulators into t, then hands t to
// rows (when there is one): a fanned-out merge's rows task.
func (t *Tracer) mergeRows(shards []*Tracer, rows func(*Tracer)) {
	for _, sh := range shards {
		mergeAccums(t, t.compute, sh.compute)
		mergeAccums(t, t.storage, sh.storage)
	}
	if rows != nil {
		rows(t)
	}
}

// plan lists the shards' sorted runs, packed, in concatenation order, and
// the cut table of a parts-way split of their n records: cuts[p*nr+r] is where
// partition p starts in run r, in records, for p in [0, parts]. Runs are cut
// at every mark and chunk end; the only records read are the splitters'
// sample and the binary searches for the cuts, and only their keys.
func (t *Tracer) plan(shards []*Tracer, n, parts int) (runs [][]byte, cuts []int) {
	const size = trace.RecordSize
	runs = t.runs[:0]
	for _, sh := range shards {
		marks, base := sh.marks, 0
		for c := 0; c <= len(sh.full); c++ {
			recs := sh.chunk
			if c < len(sh.full) {
				recs = sh.full[c]
			}
			start, end := 0, len(recs)/size
			for ; len(marks) > 0 && marks[0] < base+end; marks = marks[1:] {
				if m := marks[0] - base; m > start {
					runs = append(runs, recs[start*size:m*size])
					start = m
				}
			}
			if start < end {
				runs = append(runs, recs[start*size:end*size])
			}
			base += end
		}
	}
	nr := len(runs)
	cuts = slices.Grow(t.cuts[:0], (parts+1)*nr)[:(parts+1)*nr]
	for r, run := range runs {
		cuts[r], cuts[parts*nr+r] = 0, len(run)/size
	}
	if parts > 1 {
		// Every stride-th record of the concatenation: runs weigh by length.
		stride := max(1, n/(parts*samplesPerPart))
		samples := t.samples[:0]
		next := stride - 1
		for _, run := range runs {
			for ; next < len(run)/size; next += stride {
				samples = append(samples, keyOf(run[next*size:], 0))
			}
			next -= len(run) / size
		}
		slices.SortFunc(samples, func(a, b mergeKey) int { return b.before(a) - a.before(b) })
		for p := 1; p < parts; p++ {
			split := samples[p*len(samples)/parts]
			for r, run := range runs {
				cuts[p*nr+r] = sort.Search(len(run)/size, func(i int) bool { return keyOf(run[i*size:], 0).before(split) == 0 })
			}
		}
		t.samples = samples
	}
	return runs, cuts
}

// mergeSrc is one heap entry: the unmerged remainder [pos, end) of a run, in
// bytes, with its head record's key held inline so sifting never touches
// records.
type mergeSrc struct {
	key      mergeKey
	pos, end int
}

// mergePartition k-way merges runs[r][lo[r]:hi[r]] for every r — lo and hi
// being consecutive rows of the cut table, in records — into
// out[sum(lo):sum(hi)], unpacking each record once, where it lands.
func mergePartition(out []trace.Record, runs [][]byte, cuts []int, h []mergeSrc) {
	const size = trace.RecordSize
	lo, hi := cuts[:len(runs)], cuts[len(runs):]
	j := 0
	for r, run := range runs {
		j += lo[r]
		if lo[r] < hi[r] {
			h = append(h, mergeSrc{keyOf(run[lo[r]*size:], r), lo[r] * size, hi[r] * size})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for ; len(h) > 0; j++ {
		top := &h[0]
		r := int(uint32(top.key.lo))
		run := runs[r]
		trace.Unpack(run[top.pos:], &out[j])
		out[j].TraceID = uint64(j + 1)
		if top.pos += size; top.pos < top.end {
			top.key = keyOf(run[top.pos:], r)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
}

// siftDown restores the min-heap below index i.
func siftDown(h []mergeSrc, i int) {
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) {
			c += h[c+1].key.before(h[c].key)
		}
		if h[c].key.before(h[i].key) == 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// mergeAccums folds src into dst, summing directional rates on key
// collisions (identity fields agree by construction: the key pins the row's
// entity and every entity belongs to exactly one VD). Rows are copied into
// out's slab — never aliased — so src's owner can recycle its memory.
func mergeAccums[K comparable](out *Tracer, dst, src map[K]*accum) {
	for k, sa := range src {
		da := dst[k]
		if da == nil {
			da = out.alloc()
			da.row = sa.row
			dst[k] = da
			continue
		}
		da.row.ReadBps += sa.row.ReadBps
		da.row.WriteBps += sa.row.WriteBps
		da.row.ReadIOPS += sa.row.ReadIOPS
		da.row.WriteIOPS += sa.row.WriteIOPS
	}
}
