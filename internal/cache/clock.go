package cache

import "slices"

// Clock is the classic second-chance approximation of LRU: pages sit on a
// circular buffer with a reference bit; the hand sweeps, clearing bits and
// evicting the first unreferenced page. It serves as an extension baseline
// between FIFO (no recency) and LRU (exact recency) in the §7 cache study.
//
// FIFO is Clock whose hits never set the reference bit: the hand then
// evicts each slot in the order the slots were filled, which is insertion
// order.
type Clock struct {
	name   string
	second bool // a hit sets its page's reference bit (CLOCK, not FIFO)
	cap    int
	hand   int
	ring   []clockSlot // fills to cap, then the hand recycles slots
	slot   []int32     // id -> slot+1, 0 while the page is not resident
}

type clockSlot struct {
	id  int32
	ref bool
}

// NewClock creates a CLOCK cache holding capPages pages.
func NewClock(capPages int) *Clock { return newClock("clock", true, capPages) }

// NewFIFO creates a FIFO cache holding capPages pages: a Clock without the
// second chance.
func NewFIFO(capPages int) *Clock { return newClock("fifo", false, capPages) }

func newClock(name string, second bool, capPages int) *Clock {
	if capPages <= 0 {
		panic("cache: capacity must be positive")
	}
	return &Clock{name: name, second: second, cap: capPages}
}

// Name implements Cache.
func (c *Clock) Name() string { return c.name }

// Touch implements Cache.
func (c *Clock) Touch(id int64) bool {
	c.slot = grow(c.slot, id)
	if s := c.slot[id]; s != 0 {
		if c.second {
			c.ring[s-1].ref = true
		}
		return true
	}
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, clockSlot{id: int32(id)})
		c.slot[id] = int32(len(c.ring))
		return false
	}
	for ; c.ring[c.hand].ref; c.hand = (c.hand + 1) % c.cap {
		c.ring[c.hand].ref = false
	}
	c.slot[c.ring[c.hand].id] = 0
	c.ring[c.hand].id = int32(id)
	c.slot[id] = int32(c.hand + 1)
	c.hand = (c.hand + 1) % c.cap
	return false
}

// reserve sizes the id table for ids [0, ids) and the ring for as many of
// them as can be resident.
func (c *Clock) reserve(ids int) {
	c.slot = grow(c.slot, int64(ids)-1)
	c.ring = slices.Grow(c.ring, max(min(c.cap, ids)-len(c.ring), 0))
}

// Len implements Cache.
func (c *Clock) Len() int { return len(c.ring) }

// Capacity implements Cache.
func (c *Clock) Capacity() int { return c.cap }

// grow extends an id-indexed table with zeros until it holds id. A replay's
// table is sized once ahead of it (Stream.Reserve), so there it never
// regrows; a cache touched outside one grows it here.
func grow(table []int32, id int64) []int32 {
	if id < int64(len(table)) {
		return table
	}
	return append(table, make([]int32, id+1-int64(len(table)))...)
}
