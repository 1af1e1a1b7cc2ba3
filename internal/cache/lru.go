package cache

import "slices"

// LRU evicts the least recently used page. Its recency list is circular and
// linked through a slot-indexed slice: slot 0 is the sentinel, the others
// fill to capacity, and then each miss recycles the least recent slot.
type LRU struct {
	cap   int
	nodes []lruNode // slot -> node; nodes[0].next is the most recent slot
	slot  []int32   // id -> slot, 0 while the page is not resident
}

type lruNode struct{ id, prev, next int32 }

// NewLRU creates an LRU cache holding capPages pages.
func NewLRU(capPages int) *LRU {
	if capPages <= 0 {
		panic("cache: capacity must be positive")
	}
	return &LRU{cap: capPages, nodes: make([]lruNode, 1)}
}

// Name implements Cache.
func (c *LRU) Name() string { return "lru" }

// Touch implements Cache.
func (c *LRU) Touch(id int64) bool {
	hit, _ := c.Admit(id)
	return hit
}

// Admit is Touch that also reports the id a miss evicted, or -1 when the
// miss filled a free slot.
func (c *LRU) Admit(id int64) (hit bool, evicted int64) {
	c.slot = grow(c.slot, id)
	s, evicted := c.slot[id], -1
	switch {
	case s != 0:
		hit = true
		c.unlink(s)
	case len(c.nodes) <= c.cap:
		s = int32(len(c.nodes))
		c.nodes = append(c.nodes, lruNode{})
	default:
		s = c.nodes[0].prev
		evicted = int64(c.nodes[s].id)
		c.slot[evicted] = 0
		c.unlink(s)
	}
	head := c.nodes[0].next
	c.nodes[s] = lruNode{id: int32(id), prev: 0, next: head}
	c.nodes[head].prev, c.nodes[0].next = s, s
	c.slot[id] = s
	return hit, evicted
}

// reserve sizes the id table for ids [0, ids) and the nodes for as many of
// them as can be resident, beside the sentinel.
func (c *LRU) reserve(ids int) {
	c.slot = grow(c.slot, int64(ids)-1)
	c.nodes = slices.Grow(c.nodes, max(min(c.cap, ids)+1-len(c.nodes), 0))
}

func (c *LRU) unlink(s int32) {
	n := c.nodes[s]
	c.nodes[n.prev].next, c.nodes[n.next].prev = n.next, n.prev
}

// Len implements Cache.
func (c *LRU) Len() int { return len(c.nodes) - 1 }

// Capacity implements Cache.
func (c *LRU) Capacity() int { return c.cap }
