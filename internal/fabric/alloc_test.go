package fabric

import (
	"context"
	"runtime/debug"
	"sync"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/ebs"
	"ebslab/internal/netblock"
	"ebslab/internal/trace"
)

var raceEnabled bool // set by race_test.go

// loopbackStudy runs one whole fabric study and tears it down: a coordinator
// served over a loopback, two workers through join, dispatch, upload and
// merge of 4 shards. The wire path is the real one; only the sockets are
// in-process pipes.
func loopbackStudy(t *testing.T, eventSampleEvery int) {
	co, err := NewCoordinator(Config{
		Fleet:  testFleetConfig(),
		Opts:   ebs.Options{DurationSec: 6, TraceSampleEvery: 2, EventSampleEvery: eventSampleEvery, MaxVDs: 16, Workers: 1},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	srv := netblock.NewHandlerServer(co)
	go srv.Serve(lb) //nolint:errcheck — ends with the loopback
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(context.Background(), WorkerConfig{Dial: lb.Dial}); err != nil {
				t.Error(err)
			}
		}()
	}
	ds, err := co.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	srv.Close()
	lb.Close()
	if len(ds.Trace) == 0 {
		t.Fatal("no trace records")
	}
}

// TestFabricStudyAllocs bounds what one loopback study allocates end to end —
// the coordinator, two workers, four shards through the full
// join/dispatch/upload/merge cycle — and holds it flat in the records the
// shards carry: 1/4 event sampling (349 records) and none (1,408) allocate
// alike, so nothing on the wire or merge path allocates per record. The
// budget is the 1,966–1,984 allocations measured over 100 studies plus at
// most 15 %.
func TestFabricStudyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pool reuse is randomized under the race detector")
	}
	const budget = 2280
	// A collection mid-measurement would empty the tracer and batch pools,
	// and the next study would count their refill.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	thinned := testing.AllocsPerRun(5, func() { loopbackStudy(t, 4) })
	full := testing.AllocsPerRun(5, func() { loopbackStudy(t, 1) })
	if thinned > budget || full > budget {
		t.Errorf("a loopback study allocates %.0f times over 349 records, %.0f over 1,408; budget is %d", thinned, full, budget)
	}
	// One allocation per record would add about 1,059.
	if full > thinned+40 {
		t.Errorf("the fabric allocates per record: %.0f times over 349 records, %.0f over 1,408", thinned, full)
	}
}

// diskFrame is a result frame of shard [0, 4) carrying n packed records
// and no other section: n/4 per disk, each disk's in rising time, so the
// frame holds the same four sorted runs at every n.
func diskFrame(n int) []byte {
	p := &ebs.ShardPartial{Lo: 0, Hi: 4, Records: make([]byte, n*trace.RecordSize)}
	for i := 0; i < n; i++ {
		rec := trace.Record{TimeUS: int64(i%(n/4)) * 1000, Size: 4096, VD: cluster.VDID(i * 4 / n)}
		trace.Pack(&rec, p.Records[i*trace.RecordSize:])
	}
	return encodeResult(1, 0, p)
}

// TestDecodeResultSteadyStateAllocs holds decoding a result frame to no
// allocation per record: the partial aliases the frame's record section, so
// frames of 1,000 and 10,000 records over the same four disks allocate the
// same bytes. Measured: 296 bytes at both sizes (the partial, its three run
// marks); the budget is 1 KiB of growth. Decoding the records into a slice
// of their own would add 88 bytes a record, about 770 KiB here.
func TestDecodeResultSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	const runs = 20
	perDecode := func(frame []byte) uint64 {
		if _, _, p, err := decodeResult(frame); err != nil || len(p.Marks) != 3 {
			t.Fatalf("decode: %v", err)
		}
		return measureAlloc(func() {
			for i := 0; i < runs; i++ {
				decodeResult(frame) //nolint:errcheck — decoded once above
			}
		}) / runs
	}
	small, large := perDecode(diskFrame(1000)), perDecode(diskFrame(10_000))
	t.Logf("decoding allocates %d bytes over 1,000 records, %d over 10,000", small, large)
	if large > small+1<<10 {
		t.Errorf("decoding allocates per record: %d bytes over 1,000 records, %d over 10,000", small, large)
	}
}
