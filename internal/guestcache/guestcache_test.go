package guestcache

import (
	"math/rand"
	"testing"

	"ebslab/internal/stats"
	"ebslab/internal/trace"
)

func collect(cfg Config) (*Cache, *[]IO) {
	out := &[]IO{}
	c := New(cfg, func(io IO) { *out = append(*out, io) })
	return c, out
}

func TestRepeatedReadsAbsorbed(t *testing.T) {
	c, out := collect(Config{CachePages: 1024, FlushIntervalUS: 1e9})
	for i := 0; i < 10; i++ {
		c.Access(IO{TimeUS: int64(i), Op: trace.OpRead, Offset: 0, Size: int32(PageSize)})
	}
	if len(*out) != 1 {
		t.Fatalf("device saw %d reads, want 1 (first miss)", len(*out))
	}
	s := c.Stats()
	if s.ReadHits != 9 || s.DeviceReads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReadMissCoalescing(t *testing.T) {
	c, out := collect(Config{CachePages: 1024, FlushIntervalUS: 1e9})
	// Pre-warm page 1 of a 4-page read: device should see two reads (page 0
	// and pages 2-3).
	c.Access(IO{TimeUS: 0, Op: trace.OpRead, Offset: PageSize, Size: int32(PageSize)})
	*out = nil
	c.Access(IO{TimeUS: 1, Op: trace.OpRead, Offset: 0, Size: int32(4 * PageSize)})
	if len(*out) != 2 {
		t.Fatalf("device reads = %d, want 2", len(*out))
	}
	if (*out)[0].Offset != 0 || (*out)[0].Size != int32(PageSize) {
		t.Fatalf("first miss = %+v", (*out)[0])
	}
	if (*out)[1].Offset != 2*PageSize || (*out)[1].Size != int32(2*PageSize) {
		t.Fatalf("second miss = %+v", (*out)[1])
	}
}

func TestWriteBackDefersAndCoalesces(t *testing.T) {
	c, out := collect(Config{CachePages: 1024, FlushIntervalUS: 1000})
	// Dirty pages 0,1,2 and 10 within one flush interval.
	for _, p := range []int64{0, 1, 2, 10} {
		c.Access(IO{TimeUS: 1, Op: trace.OpWrite, Offset: p * PageSize, Size: int32(PageSize)})
	}
	if len(*out) != 0 {
		t.Fatalf("write-back emitted early: %d IOs", len(*out))
	}
	// Next access after the interval triggers the flusher.
	c.Access(IO{TimeUS: 2000, Op: trace.OpRead, Offset: 100 * PageSize, Size: int32(PageSize)})
	var writes []IO
	for _, io := range *out {
		if io.Op == trace.OpWrite {
			writes = append(writes, io)
		}
	}
	if len(writes) != 2 {
		t.Fatalf("flush writes = %d, want 2 coalesced runs", len(writes))
	}
	if writes[0].Offset != 0 || writes[0].Size != int32(3*PageSize) {
		t.Fatalf("first run = %+v", writes[0])
	}
	if writes[1].Offset != 10*PageSize || writes[1].Size != int32(PageSize) {
		t.Fatalf("second run = %+v", writes[1])
	}
}

func TestEvictionFlushesDirtyPage(t *testing.T) {
	c, out := collect(Config{CachePages: 2, FlushIntervalUS: 1e9})
	c.Access(IO{TimeUS: 1, Op: trace.OpWrite, Offset: 0, Size: int32(PageSize)})
	c.Access(IO{TimeUS: 2, Op: trace.OpWrite, Offset: PageSize, Size: int32(PageSize)})
	c.Access(IO{TimeUS: 3, Op: trace.OpWrite, Offset: 2 * PageSize, Size: int32(PageSize)}) // evicts page 0
	found := false
	for _, io := range *out {
		if io.Op == trace.OpWrite && io.Offset == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("evicted dirty page was not flushed")
	}
	if c.Stats().EvictionFlushedPages == 0 {
		t.Fatal("eviction flush not counted")
	}
}

func TestFlushAll(t *testing.T) {
	app := []IO{
		{TimeUS: 1, Op: trace.OpWrite, Offset: 0, Size: int32(PageSize)},
	}
	out, st := Filter(Config{CachePages: 16, FlushIntervalUS: 1e9}, app)
	if len(out) != 1 || out[0].Op != trace.OpWrite {
		t.Fatalf("FlushAll did not write back: %+v", out)
	}
	if st.FlushedPages != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFilterMakesEBSVisibleHotBlocksWriteDominant(t *testing.T) {
	// The §7.2 mechanism: an app hammering a hot range with reads and
	// writes looks read-heavy at the application, but the page cache
	// absorbs the re-reads, so the device-visible stream is write-dominant.
	rng := rand.New(rand.NewSource(2))
	hotPages := int64(512) // 2 MiB hot range, fits in cache
	var app []IO
	var appR, appW float64
	for i := 0; i < 30000; i++ {
		io := IO{TimeUS: int64(i) * 200}
		if rng.Float64() < 0.7 {
			io.Op = trace.OpRead
			appR++
		} else {
			io.Op = trace.OpWrite
			appW++
		}
		io.Offset = rng.Int63n(hotPages) * PageSize
		io.Size = int32(PageSize)
		app = append(app, io)
	}
	appRatio := stats.WrRatio(appW, appR)
	out, st := Filter(Config{CachePages: 4096, FlushIntervalUS: 1_000_000}, app)
	var devRBytes, devWBytes, devWIOs float64
	for _, io := range out {
		if io.Op == trace.OpRead {
			devRBytes += float64(io.Size)
		} else {
			devWBytes += float64(io.Size)
			devWIOs++
		}
	}
	// Throughput-based wr_ratio, like the paper's Equation 2 on bytes.
	devRatio := stats.WrRatio(devWBytes, devRBytes)
	if !(appRatio < 0) {
		t.Fatalf("app stream should be read-dominant, wr_ratio %v", appRatio)
	}
	if !(devRatio > 1.0/3) {
		t.Fatalf("device stream should be write-dominant by bytes, wr_ratio %v", devRatio)
	}
	if st.ReadHits == 0 {
		t.Fatal("no read hits in a memory-resident hot set")
	}
	// Flush coalescing means far fewer device write IOs than app writes.
	if !(devWIOs < appW/2) {
		t.Fatalf("device write IOs %v not well below app writes %v", devWIOs, appW)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-page cache accepted")
		}
	}()
	New(Config{CachePages: 0}, func(IO) {})
}

func TestSortInt64(t *testing.T) {
	xs := []int64{5, 1, 4, 1, 3}
	sortInt64(xs)
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			t.Fatalf("not sorted: %v", xs)
		}
	}
}
