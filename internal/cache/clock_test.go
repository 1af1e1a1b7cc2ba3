package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockBasics(t *testing.T) {
	c := NewClock(2)
	if c.Touch(1) {
		t.Fatal("cold hit")
	}
	if !c.Touch(1) {
		t.Fatal("resident miss")
	}
	c.Touch(2)
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Fatalf("Len/Cap = %d/%d", c.Len(), c.Capacity())
	}
	if c.Name() != "clock" {
		t.Fatal("name")
	}
}

func TestClockSecondChance(t *testing.T) {
	c := NewClock(2)
	c.Touch(1)
	c.Touch(2)
	c.Touch(1) // reference 1: it gets a second chance
	c.Touch(3) // hand clears 1's bit, evicts 2
	if !c.Touch(1) {
		t.Fatal("referenced page was evicted despite second chance")
	}
	if c.Touch(2) {
		t.Fatal("unreferenced page survived")
	}
}

func TestClockApproximatesLRUOnLocalWorkload(t *testing.T) {
	// On a workload with reuse, CLOCK's hit ratio should land between FIFO
	// and LRU (inclusive), and well above zero.
	rng := rand.New(rand.NewSource(9))
	var accesses []Access
	for i := 0; i < 20000; i++ {
		var page int64
		if rng.Float64() < 0.8 {
			page = rng.Int63n(64) // hot set fits in cache
		} else {
			page = 64 + rng.Int63n(10000)
		}
		accesses = append(accesses, Access{Offset: page * PageSize, Size: int32(PageSize)})
	}
	fifo := Simulate(NewFIFO(128), Number(accesses)).HitRatio()
	clock := Simulate(NewClock(128), Number(accesses)).HitRatio()
	lru := Simulate(NewLRU(128), Number(accesses)).HitRatio()
	if !(clock >= fifo-0.02) {
		t.Fatalf("CLOCK %v well below FIFO %v", clock, fifo)
	}
	if !(clock <= lru+0.02) {
		t.Fatalf("CLOCK %v well above LRU %v", clock, lru)
	}
	if clock < 0.5 {
		t.Fatalf("CLOCK hit ratio %v too low for an in-cache hot set", clock)
	}
}

func TestClockNeverExceedsCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capPages := 1 + rng.Intn(16)
		c := NewClock(capPages)
		for i := 0; i < 400; i++ {
			c.Touch(rng.Int63n(48))
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

func TestClockPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) should panic")
		}
	}()
	NewClock(0)
}
