package cache

import (
	"container/list"
	"math/rand"
	"testing"
)

// The map and container/list policies below are the reference the
// slice-indexed ones are held to: they key resident pages by page number,
// so they need no numbering.

// refFIFO evicts in insertion order regardless of reuse.
type refFIFO struct {
	cap   int
	queue []int64
	set   map[int64]bool
}

func (c *refFIFO) touch(page int64) bool {
	if c.set[page] {
		return true
	}
	if len(c.set) >= c.cap {
		delete(c.set, c.queue[0])
		c.queue = c.queue[1:]
	}
	c.set[page] = true
	c.queue = append(c.queue, page)
	return false
}

func (c *refFIFO) len() int { return len(c.set) }

// refLRU evicts the least recently used page.
type refLRU struct {
	cap int
	ll  *list.List // front = most recent
	pos map[int64]*list.Element
}

func (c *refLRU) touch(page int64) bool {
	if el, ok := c.pos[page]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	if c.ll.Len() >= c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.pos, back.Value.(int64))
	}
	c.pos[page] = c.ll.PushFront(page)
	return false
}

func (c *refLRU) len() int { return c.ll.Len() }

// refClock is second-chance CLOCK over a fixed ring.
type refClock struct {
	cap  int
	hand int
	ring []refClockEntry
	pos  map[int64]int // page -> ring index
}

type refClockEntry struct {
	page int64
	ref  bool
	used bool
}

func (c *refClock) touch(page int64) bool {
	if i, ok := c.pos[page]; ok {
		c.ring[i].ref = true
		return true
	}
	// Find a victim slot: first unused, else sweep.
	for {
		e := &c.ring[c.hand]
		if !e.used {
			e.page, e.ref, e.used = page, false, true
			c.pos[page] = c.hand
			c.hand = (c.hand + 1) % c.cap
			return false
		}
		if e.ref {
			e.ref = false
			c.hand = (c.hand + 1) % c.cap
			continue
		}
		delete(c.pos, e.page)
		e.page, e.ref = page, false
		c.pos[page] = c.hand
		c.hand = (c.hand + 1) % c.cap
		return false
	}
}

func (c *refClock) len() int { return len(c.pos) }

// refPolicy is a reference cache keyed by page number.
type refPolicy interface {
	touch(page int64) bool
	len() int
}

// randomAccesses draws n IOs of up to 16 KiB, some unaligned, from a small
// address space with a hot region, so every capacity from 1 to 64 pages
// sees both hits and evictions.
func randomAccesses(rng *rand.Rand, n int) []Access {
	span := int64(8 + rng.Intn(200))
	out := make([]Access, n)
	for i := range out {
		page := rng.Int63n(span)
		if rng.Intn(2) == 0 {
			page = rng.Int63n(1 + span/8)
		}
		off := (1000+page)*PageSize + rng.Int63n(2)*rng.Int63n(PageSize)
		out[i] = Access{Offset: off, Size: int32(1 + rng.Int63n(4*PageSize))}
	}
	return out
}

// TestPoliciesMatchReference replays seeded random streams at capacities
// 1–64 through each slice-indexed policy on numbered pages and through its
// map/list reference on page numbers: every touch must hit alike and leave
// the same number of pages resident.
func TestPoliciesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		accesses := randomAccesses(rng, 600)
		s := Number(accesses)
		var pages []int64
		for _, a := range accesses {
			first, last := a.Pages()
			for p := first; p <= last; p++ {
				pages = append(pages, p)
			}
		}
		if len(pages) != len(s.IDs) {
			t.Fatalf("seed %d: %d ids for %d page touches", seed, len(s.IDs), len(pages))
		}
		for capPages := 1; capPages <= 64; capPages++ {
			for _, pc := range []struct {
				c   Cache
				ref refPolicy
			}{
				{NewFIFO(capPages), &refFIFO{cap: capPages, set: map[int64]bool{}}},
				{NewLRU(capPages), &refLRU{cap: capPages, ll: list.New(), pos: map[int64]*list.Element{}}},
				{NewClock(capPages), &refClock{cap: capPages, ring: make([]refClockEntry, capPages), pos: map[int64]int{}}},
			} {
				var hits int
				for i, id := range s.IDs {
					if s.Pages[id] != pages[i] {
						t.Fatalf("seed %d: touch %d has id %d for page %d, want page %d", seed, i, id, s.Pages[id], pages[i])
					}
					got, want := pc.c.Touch(int64(id)), pc.ref.touch(pages[i])
					if got != want || pc.c.Len() != pc.ref.len() {
						t.Fatalf("seed %d, %s at %d pages, touch %d (page %d): hit %v, Len %d; reference hit %v, Len %d",
							seed, pc.c.Name(), capPages, i, pages[i], got, pc.c.Len(), want, pc.ref.len())
					}
					if got {
						hits++
					}
				}
				if capPages == 64 && hits == 0 {
					t.Fatalf("seed %d: %s never hit; the stream exercises nothing", seed, pc.c.Name())
				}
			}
		}
	}
}

// TestNumberFollowsPageOrder: ids number the distinct pages in address
// order, so the frozen cache over ids hits exactly where the one over page
// numbers does.
func TestNumberFollowsPageOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	accesses := randomAccesses(rng, 2000)
	s := Number(accesses)
	for i := 1; i < len(s.Pages); i++ {
		if s.Pages[i] <= s.Pages[i-1] {
			t.Fatalf("ids %d, %d number pages %d, %d", i-1, i, s.Pages[i-1], s.Pages[i])
		}
	}
	for _, r := range [][2]int64{{1000 * PageSize, 5 * PageSize}, {1003*PageSize + 17, 40 * PageSize}, {0, 4 * PageSize}, {1 << 40, PageSize}} {
		byPage, byID := NewFrozen(r[0], r[1]), s.Frozen(r[0], r[1])
		for _, id := range s.IDs {
			if byPage.Touch(s.Pages[id]) != byID.Touch(int64(id)) {
				t.Fatalf("range %v: page %d hits %v by page, %v by id", r, s.Pages[id], byPage.Touch(s.Pages[id]), byID.Touch(int64(id)))
			}
		}
	}
}

// TestCacheTouchSteadyStateAllocs: once a policy's tables have grown to the
// stream's ids and its capacity, a touch allocates nothing, hit or miss.
func TestCacheTouchSteadyStateAllocs(t *testing.T) {
	s := Number(randomAccesses(rand.New(rand.NewSource(3)), 4000))
	for _, c := range []Cache{NewFIFO(32), NewLRU(32), NewClock(32), s.Frozen(1000*PageSize, 16*PageSize)} {
		Simulate(c, s)
		if n := testing.AllocsPerRun(20, func() { Simulate(c, s) }); n != 0 {
			t.Errorf("%s: %v allocations per warm replay of %d touches", c.Name(), n, len(s.IDs))
		}
	}
}
