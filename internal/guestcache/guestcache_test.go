package guestcache

import (
	"math/rand"
	"testing"

	"ebslab/internal/cache"
	"ebslab/internal/stats"
)

func TestRepeatedReadsAbsorbed(t *testing.T) {
	var app []cache.Access
	for i := 0; i < 10; i++ {
		app = append(app, cache.Access{TimeUS: int64(i), Offset: 0, Size: int32(PageSize)})
	}
	out, s := Filter(Config{CachePages: 1024, FlushIntervalUS: 1e9}, app)
	if len(out) != 1 {
		t.Fatalf("device saw %d reads, want 1 (first miss)", len(out))
	}
	if s.ReadHits != 9 || s.DeviceReads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReadMissCoalescing(t *testing.T) {
	// Pre-warm page 1 of a 4-page read: device should see two reads (page 0
	// and pages 2-3) after the warming one.
	out, _ := Filter(Config{CachePages: 1024, FlushIntervalUS: 1e9}, []cache.Access{
		{TimeUS: 0, Offset: PageSize, Size: int32(PageSize)},
		{TimeUS: 1, Offset: 0, Size: int32(4 * PageSize)},
	})
	if len(out) != 3 {
		t.Fatalf("device reads = %d, want 1 + 2", len(out))
	}
	if out[1].Offset != 0 || out[1].Size != int32(PageSize) {
		t.Fatalf("first miss = %+v", out[1])
	}
	if out[2].Offset != 2*PageSize || out[2].Size != int32(2*PageSize) {
		t.Fatalf("second miss = %+v", out[2])
	}
}

func TestWriteBackDefersAndCoalesces(t *testing.T) {
	// Dirty pages 0,1,2 and 10 within one flush interval.
	var app []cache.Access
	for _, p := range []int64{0, 1, 2, 10} {
		app = append(app, cache.Access{TimeUS: 1, Offset: p * PageSize, Size: int32(PageSize), Write: true})
	}
	// Next access after the interval triggers the flusher.
	app = append(app, cache.Access{TimeUS: 2000, Offset: 100 * PageSize, Size: int32(PageSize)})
	out, _ := Filter(Config{CachePages: 1024, FlushIntervalUS: 1000}, app)
	var writes []cache.Access
	for _, io := range out {
		if io.Write {
			if io.TimeUS != 2000 {
				t.Fatalf("write-back emitted at %d µs, before the flusher ran: %+v", io.TimeUS, io)
			}
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
	out, s := Filter(Config{CachePages: 2, FlushIntervalUS: 1e9}, []cache.Access{
		{TimeUS: 1, Offset: 0, Size: int32(PageSize), Write: true},
		{TimeUS: 2, Offset: PageSize, Size: int32(PageSize), Write: true},
		{TimeUS: 3, Offset: 2 * PageSize, Size: int32(PageSize), Write: true}, // evicts page 0
	})
	found := false
	for _, io := range out {
		if io.Write && io.Offset == 0 && io.TimeUS == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("evicted dirty page was not flushed")
	}
	if s.EvictionFlushedPages == 0 {
		t.Fatal("eviction flush not counted")
	}
}

func TestFlushAll(t *testing.T) {
	app := []cache.Access{
		{TimeUS: 1, Offset: 0, Size: int32(PageSize), Write: true},
	}
	out, st := Filter(Config{CachePages: 16, FlushIntervalUS: 1e9}, app)
	if len(out) != 1 || !out[0].Write {
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
	var app []cache.Access
	var appR, appW float64
	for i := 0; i < 30000; i++ {
		io := cache.Access{TimeUS: int64(i) * 200}
		if rng.Float64() < 0.7 {
			appR++
		} else {
			io.Write = true
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
		if !io.Write {
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
	Filter(Config{CachePages: 0}, nil)
}
