package ebs

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/diting"
	"ebslab/internal/trace"
)

// replayedStreams is a record-sourced workload replaying hand-made per-disk
// record streams, as a native-schema replay does.
type replayedStreams struct {
	nativeWorkload
	recs [][]trace.Record
}

func (replayedStreams) SourcesRecords() bool                     { return true }
func (r replayedStreams) Records(vd cluster.VDID) []trace.Record { return r.recs[vd] }

// steppingStreams builds nVDs disks of replayed traffic shaped for the
// merge's run marks: disk 0 holds more records than a tracer chunk, so a
// chunk rolls over inside it; every disk's clock steps back now and then,
// often between equal keys; and every odd disk starts where the disk before
// it ended, so a tracer that takes the two in turn sees the keys rise across
// the switch.
func steppingStreams(rng *rand.Rand, nDisks, nVDs int) [][]trace.Record {
	recs := make([][]trace.Record, nDisks)
	end := int64(0)
	for vd := 0; vd < nVDs; vd++ {
		n := 34_000 / (vd + 1)
		now := int64(rng.Intn(1000))
		if vd%2 == 1 {
			now = end
		}
		s := make([]trace.Record, n)
		for i := range s {
			switch rng.Intn(10) {
			case 0:
				now = max(0, now-rng.Int63n(4000))
			case 1, 2:
			default:
				now += rng.Int63n(1 + 2*9_000_000/int64(n))
			}
			r := trace.Record{
				TimeUS: now, Op: trace.Op(rng.Intn(2)), Size: 4096, Offset: int64(i),
				VD: cluster.VDID(vd), QP: cluster.QPID(4*vd + i%4), Segment: cluster.SegmentID(8*vd + i%8),
			}
			r.Latency[trace.StageComputeNode] = float32(rng.Intn(500))
			s[i] = r
		}
		recs[vd], end = s, now
	}
	return recs
}

// TestMarkedRunsMergeAsStableSort feeds the merge through the engine's own
// writers — the batch pipeline's tracers (EmitBatch), and RunShard partials
// through MergeShards — on disks that step back in time between equal keys,
// disks whose keys rise across the switch, and a chunk rollover inside a
// disk, with enough records for every fan-out up to 8. Run and MergeShards
// must both equal a stable sort of the disks' records by (TimeUS, VD),
// renumbered, at every GOMAXPROCS x Workers.
func TestMarkedRunsMergeAsStableSort(t *testing.T) {
	const nVDs = 12
	f := smallFleet(t)
	sim := New(f)
	streams := steppingStreams(rand.New(rand.NewSource(28)), len(f.Topology.VDs), nVDs)
	var want []trace.Record
	for _, s := range streams {
		for _, r := range s {
			if r.TimeUS < 20_000_000 {
				want = append(want, r)
			}
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		a, b := &want[i], &want[j]
		return a.TimeUS < b.TimeUS || a.TimeUS == b.TimeUS && a.VD < b.VD
	})
	for i := range want {
		want[i].TraceID = uint64(i + 1)
	}
	opts := Options{DurationSec: 20, TraceSampleEvery: 1, EventSampleEvery: 1, MaxVDs: nVDs,
		Scenario: replayedStreams{nativeWorkload{f}, streams}}
	same := func(ds *trace.Dataset, err error, cell string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if len(ds.Trace) != len(want) {
			t.Fatalf("%s: %d records, want %d", cell, len(ds.Trace), len(want))
		}
		for i := range want {
			if ds.Trace[i] != want[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", cell, i, ds.Trace[i], want[i])
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 3, 8} {
			o := opts
			o.Workers = workers
			ds, err := sim.Run(context.Background(), o)
			same(ds, err, fmt.Sprintf("GOMAXPROCS=%d Workers=%d", procs, workers))
		}
		for _, workers := range []int{1, 2} {
			o := opts
			o.Workers = workers
			var parts []*ShardPartial
			for _, r := range cluster.PlanShards(nVDs, 3) {
				p, err := sim.RunShard(context.Background(), o, r.Lo, r.Hi)
				if err != nil {
					t.Fatal(err)
				}
				checkPartialMarks(t, p)
				parts = append(parts, p)
			}
			ds, err := sim.MergeShards(o, parts)
			same(ds, err, fmt.Sprintf("GOMAXPROCS=%d RunShard(Workers=%d) x 3 -> MergeShards", procs, workers))
			for _, p := range parts {
				p.Release()
			}
		}
	}
}

// checkPartialMarks holds a RunShard partial's marks to its chunks: ascending,
// and every record below its predecessor within a chunk among them.
func checkPartialMarks(t *testing.T, p *ShardPartial) {
	t.Helper()
	marked := map[int]bool{}
	for i, m := range p.Marks {
		if i > 0 && m <= p.Marks[i-1] {
			t.Fatalf("shard [%d,%d): marks %v not ascending", p.Lo, p.Hi, p.Marks)
		}
		marked[m] = true
	}
	const size = trace.RecordSize
	base := 0
	for _, chunk := range p.Chunks() {
		for i := 1; i < len(chunk)/size; i++ {
			if diting.StartsRun(chunk[(i-1)*size:i*size], chunk[i*size:]) && !marked[base+i] {
				t.Fatalf("shard [%d,%d): the run starting at record %d is unmarked", p.Lo, p.Hi, base+i)
			}
		}
		base += len(chunk) / size
	}
}

// goroutineID is the running goroutine's number, from its stack header
// ("goroutine 18 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestSingleWorkerTailStaysOnCaller pins the merge's fan-out rule —
// min(GOMAXPROCS, tracers), at least 4,096 records a goroutine — where small
// runs meet it: a Workers: 1 run hands its tail one tracer, and merging it the
// way finish does (diting.MergeWith with the rows task, exportRows) runs on the
// caller's goroutine even on four cores; so does a two-worker study under
// 8,192 records. A large two-worker run does fan out, which shows the check
// can tell.
func TestSingleWorkerTailStaysOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sim := New(smallFleet(t))
	for _, tc := range []struct {
		name   string
		opts   Options
		fanOut bool
	}{
		{"Workers=1", Options{DurationSec: 20, TraceSampleEvery: 1, EventSampleEvery: 1, Workers: 1}, false},
		{"small study", Options{DurationSec: 8, TraceSampleEvery: 1, EventSampleEvery: 8, MaxVDs: 10, Workers: 2}, false},
		{"Workers=2", Options{DurationSec: 20, TraceSampleEvery: 1, EventSampleEvery: 1, Workers: 2}, true},
	} {
		r, err := sim.runRange(context.Background(), tc.opts, 0, sim.runVDs(tc.opts), nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.opts.Workers == 1 && len(r.tracers) != 1 {
			t.Fatalf("%s: the tail merges %d tracers, want 1", tc.name, len(r.tracers))
		}
		caller, rowsOn := goroutineID(), ""
		merged := diting.MergeWith(r.opts.TraceSampleEvery, r.tracers, func(m *diting.Tracer) {
			rowsOn = goroutineID()
			r.exportRows(m)
		})
		n := len(merged.Records())
		if (rowsOn != caller) != tc.fanOut {
			t.Errorf("%s: %d records over %d tracers merged with the rows task on goroutine %s, caller %s; want fan-out %v",
				tc.name, n, len(r.tracers), rowsOn, caller, tc.fanOut)
		}
		merged.Release()
		r.release()
	}
}
