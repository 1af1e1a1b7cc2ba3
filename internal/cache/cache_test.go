package cache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFIFOBasics(t *testing.T) {
	c := NewFIFO(2)
	if c.Touch(1) {
		t.Fatal("cold cache hit")
	}
	if !c.Touch(1) {
		t.Fatal("resident page missed")
	}
	c.Touch(2)
	c.Touch(3) // evicts 1 (FIFO order), not 2
	if c.Touch(1) {
		t.Fatal("page 1 should have been evicted")
	}
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Fatalf("Len/Cap = %d/%d", c.Len(), c.Capacity())
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	c := NewFIFO(2)
	c.Touch(1)
	c.Touch(2)
	c.Touch(1) // re-touch does NOT move 1 to back of queue
	c.Touch(3) // evicts 1
	if c.Touch(1) {
		t.Fatal("FIFO should evict in insertion order despite reuse")
	}
}

func TestLRURespectsRecency(t *testing.T) {
	c := NewLRU(2)
	c.Touch(1)
	c.Touch(2)
	c.Touch(1) // 1 is now most recent
	c.Touch(3) // evicts 2
	if !c.Touch(1) {
		t.Fatal("LRU evicted the recently used page")
	}
	if c.Touch(2) {
		t.Fatal("LRU kept the stale page")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestFrozenRange(t *testing.T) {
	// Pin [64 MiB, 128 MiB).
	c := NewFrozen(64<<20, 64<<20)
	inside := (64 << 20) / PageSize
	if !c.Touch(inside) {
		t.Fatal("page inside frozen range missed")
	}
	if c.Touch(inside - 1) {
		t.Fatal("page below frozen range hit")
	}
	if c.Touch(c.end) {
		t.Fatal("page past frozen range hit")
	}
	if c.Len() != int((64<<20)/PageSize) {
		t.Fatalf("frozen Len = %d", c.Len())
	}
	// Frozen never admits: repeated misses stay misses.
	if c.Touch(0) || c.Touch(0) {
		t.Fatal("frozen cache admitted a page")
	}
}

func TestCacheConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"fifo":   func() { NewFIFO(0) },
		"lru":    func() { NewLRU(-1) },
		"frozen": func() { NewFrozen(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s constructor accepted bad capacity", name)
				}
			}()
			fn()
		}()
	}
}

func TestSimulateCountsPages(t *testing.T) {
	c := NewLRU(1024)
	accesses := []Access{
		{Offset: 0, Size: int32(2 * PageSize)}, // pages 0,1: misses
		{Offset: 0, Size: int32(PageSize)},     // page 0: hit
	}
	res := Simulate(c, Number(accesses))
	if res.PageTotal != 3 || res.PageHits != 1 {
		t.Fatalf("sim = %+v", res)
	}
	if math.Abs(res.HitRatio()-1.0/3.0) > 1e-12 {
		t.Fatalf("hit ratio = %v", res.HitRatio())
	}
	var empty SimResult
	if !math.IsNaN(empty.HitRatio()) {
		t.Fatal("empty sim hit ratio should be NaN")
	}
}

func TestSequentialWriteMakesFIFOEqualLRU(t *testing.T) {
	// §7.3.1: the hottest blocks do mostly sequential writes, which makes
	// FIFO and LRU behave identically — verify on a cyclic sequential
	// stream larger than the cache.
	mk := func() []Access {
		var out []Access
		for rep := 0; rep < 4; rep++ {
			for off := int64(0); off < 512*PageSize; off += PageSize {
				out = append(out, Access{Offset: off, Size: int32(PageSize), Write: true})
			}
		}
		return out
	}
	f := Simulate(NewFIFO(128), Number(mk()))
	l := Simulate(NewLRU(128), Number(mk()))
	if f.HitRatio() != l.HitRatio() {
		t.Fatalf("FIFO %v != LRU %v on sequential writes", f.HitRatio(), l.HitRatio())
	}
}

func TestFrozenWinsWithLargeCacheOnHotspot(t *testing.T) {
	// Hotspot traffic inside a 64 MiB range plus cold scans: a frozen cache
	// covering the hotspot hits on all hot IOs and never thrashes.
	rng := rand.New(rand.NewSource(3))
	var accesses []Access
	hotStart := int64(128 << 20)
	for i := 0; i < 20000; i++ {
		if rng.Float64() < 0.7 {
			accesses = append(accesses, Access{
				Offset: hotStart + rng.Int63n(64<<20-int64(PageSize))/PageSize*PageSize,
				Size:   int32(PageSize), Write: true,
			})
		} else {
			accesses = append(accesses, Access{
				Offset: rng.Int63n(8<<30-int64(PageSize)) / PageSize * PageSize,
				Size:   int32(PageSize),
			})
		}
	}
	s := Number(accesses)
	fc := Simulate(s.Frozen(hotStart, 64<<20), s)
	if fc.HitRatio() < 0.6 {
		t.Fatalf("frozen hit ratio %v, want >= hot fraction ~0.7", fc.HitRatio())
	}
}

func TestLRUNeverExceedsCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capPages := 1 + rng.Intn(32)
		c := NewLRU(capPages)
		for i := 0; i < 500; i++ {
			c.Touch(rng.Int63n(64))
			if c.Len() > capPages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFONeverExceedsCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capPages := 1 + rng.Intn(32)
		c := NewFIFO(capPages)
		for i := 0; i < 500; i++ {
			c.Touch(rng.Int63n(64))
			if c.Len() > capPages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeBlocks(t *testing.T) {
	blockSize := int64(64 << 20)
	capacity := int64(1 << 30) // 16 blocks
	var accesses []Access
	// 6 writes and 2 reads to block 3; 2 reads to block 7.
	for i := 0; i < 6; i++ {
		accesses = append(accesses, Access{Offset: 3*blockSize + int64(i)*PageSize, Write: true})
	}
	accesses = append(accesses,
		Access{Offset: 3 * blockSize}, Access{Offset: 3*blockSize + PageSize},
		Access{Offset: 7 * blockSize}, Access{Offset: 7*blockSize + PageSize},
	)
	rep := AnalyzeBlocks(accesses, capacity, blockSize)
	if rep.Hottest != 3 {
		t.Fatalf("hottest = %d, want 3", rep.Hottest)
	}
	if math.Abs(rep.AccessRate-0.8) > 1e-12 {
		t.Fatalf("access rate = %v, want 0.8", rep.AccessRate)
	}
	if math.Abs(rep.WrRatio-0.5) > 1e-12 {
		t.Fatalf("wr_ratio = %v, want (6-2)/(6+2)", rep.WrRatio)
	}
	if math.Abs(rep.BlockShare-1.0/16.0) > 1e-12 {
		t.Fatalf("block share = %v", rep.BlockShare)
	}
}

func TestAnalyzeBlocksEdgeCases(t *testing.T) {
	rep := AnalyzeBlocks(nil, 1<<30, 64<<20)
	if !math.IsNaN(rep.AccessRate) || rep.Hottest != -1 {
		t.Fatalf("empty analysis = %+v", rep)
	}
	// Block bigger than the disk: share clamps to 1.
	rep = AnalyzeBlocks([]Access{{Offset: 0}}, 32<<20, 64<<20)
	if rep.BlockShare != 1 {
		t.Fatalf("share = %v, want 1", rep.BlockShare)
	}
}

func TestHotRate(t *testing.T) {
	blockSize := int64(64 << 20)
	// Two windows: in window 0 the hot block gets 100%, in window 1 it gets
	// 0% — with overall rate 0.5, exactly half the windows meet it.
	accesses := []Access{
		{TimeUS: 0, Offset: 0},
		{TimeUS: 1, Offset: PageSize},
		{TimeUS: 1_000_001, Offset: blockSize},
		{TimeUS: 1_000_002, Offset: blockSize + PageSize},
	}
	got := HotRate(accesses, blockSize, 0, 0.5, 1_000_000)
	if got != 0.5 {
		t.Fatalf("hot rate = %v, want 0.5", got)
	}
	if !math.IsNaN(HotRate(nil, blockSize, 0, 0.5, 1e6)) {
		t.Fatal("empty hot rate should be NaN")
	}
	if !math.IsNaN(HotRate(accesses, blockSize, -1, 0.5, 1e6)) {
		t.Fatal("missing hottest block should be NaN")
	}
}
