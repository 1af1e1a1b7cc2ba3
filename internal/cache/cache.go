// Package cache implements the caching study of §7: page-granular FIFO,
// CLOCK and LRU caches, the FrozenHot-style "frozen cache" that pins the
// hottest LBA range without eviction, the hottest-block analyzer behind
// Figure 6, and a trace-driven hit-ratio simulator matching the Figure 7(a)
// protocol (4 KiB pages, cache sized to the block under study).
//
// Replays run on numbered pages: Number expands a stream of accesses to page
// touches once and gives each distinct page a dense id, so every policy keeps
// its resident set in slices indexed by id and a page touch costs no hash
// probe. Ids follow page order, so a page range is an id range.
package cache

import (
	"cmp"
	"math"
	"slices"
)

// PageSize is the cache page granularity (4 KiB, §7.3.1).
const PageSize int64 = 4 << 10

// Access is one block IO as the cache sees it.
type Access struct {
	TimeUS int64
	Offset int64
	Size   int32
	Write  bool
}

// Pages returns the first and last page an access covers.
func (a Access) Pages() (first, last int64) {
	return a.Offset / PageSize, (a.Offset + int64(a.Size) - 1) / PageSize
}

// Cache is a page-granular cache over one VD's logical address space.
type Cache interface {
	// Name identifies the policy.
	Name() string
	// Touch accesses one page and reports whether it hit. Policies that
	// admit on miss insert the page. A replay keys pages by their ids from
	// Number; only a frozen cache from NewFrozen takes page numbers.
	Touch(id int64) bool
	// Len is the number of resident pages.
	Len() int
	// Capacity is the maximum number of resident pages.
	Capacity() int
}

// Stream is a run of accesses expanded to page touches, with each distinct
// page numbered.
type Stream struct {
	// IDs holds the id of every page touch, in access order.
	IDs []int32
	// Pages maps an id to its page: ids number the distinct pages in
	// increasing page order.
	Pages []int64
}

// Number expands accesses to the pages each covers and numbers them. An
// access covers a run of pages and ids follow page order, so the run's ids
// are consecutive: one search per access finds them.
func Number(accesses []Access) Stream {
	var s Stream
	byOffset := slices.Clone(accesses)
	slices.SortFunc(byOffset, func(x, y Access) int { return cmp.Compare(x.Offset, y.Offset) })
	for _, a := range byOffset {
		for p, last := a.Pages(); p <= last; p++ {
			if n := len(s.Pages); n == 0 || p > s.Pages[n-1] {
				s.Pages = append(s.Pages, p)
			}
		}
	}
	for _, a := range accesses {
		first, last := a.Pages()
		id, _ := slices.BinarySearch(s.Pages, first)
		for p := first; p <= last; p++ {
			s.IDs = append(s.IDs, int32(id+int(p-first)))
		}
	}
	return s
}

// Reserve sizes c's id-indexed tables for a replay of s, to its number of
// distinct pages, so that no touch of the replay regrows them: Clock, FIFO
// and LRU keep such tables; other caches are left as they are. Simulate
// reserves what it is given; a caller that wraps a policy reserves the
// policy itself.
func (s Stream) Reserve(c Cache) {
	switch c := c.(type) {
	case *Clock:
		c.reserve(len(s.Pages))
	case *LRU:
		c.reserve(len(s.Pages))
	}
}

// Frozen is NewFrozen keyed by s's ids: since ids follow page order, the
// pinned pages s touches are one id range, and Len counts them.
func (s Stream) Frozen(offset, length int64) *Frozen {
	f := NewFrozen(offset, length)
	start, _ := slices.BinarySearch(s.Pages, f.start)
	end, _ := slices.BinarySearch(s.Pages, f.end)
	return &Frozen{start: int64(start), end: int64(end)}
}

// Frozen is the FrozenHot-style cache (§7.3.1): a fixed page range pinned at
// construction with no admission and no eviction, which eliminates cache
// management overhead entirely. A page hits iff it lies in the frozen range.
type Frozen struct {
	start, end int64 // the pinned keys, [start, end)
}

// NewFrozen pins the byte range [offset, offset+length) of the address
// space, keyed by page number; both should be page aligned (misalignment is
// tolerated by rounding outward).
func NewFrozen(offset, length int64) *Frozen {
	if length <= 0 {
		panic("cache: frozen range must be non-empty")
	}
	start := offset / PageSize
	end := (offset + length + PageSize - 1) / PageSize
	return &Frozen{start: start, end: end}
}

// Name implements Cache.
func (c *Frozen) Name() string { return "frozen" }

// Touch implements Cache.
func (c *Frozen) Touch(id int64) bool { return id >= c.start && id < c.end }

// Len implements Cache.
func (c *Frozen) Len() int { return int(c.end - c.start) }

// Capacity implements Cache.
func (c *Frozen) Capacity() int { return c.Len() }

// SimResult reports a hit-ratio simulation.
type SimResult struct {
	// PageHits / PageTotal count page touches (an IO spanning n pages
	// contributes n touches).
	PageHits, PageTotal int64
}

// HitRatio returns PageHits/PageTotal, or NaN with no traffic.
func (r SimResult) HitRatio() float64 {
	if r.PageTotal == 0 {
		return math.NaN()
	}
	return float64(r.PageHits) / float64(r.PageTotal)
}

// Simulate replays a numbered stream through the cache, reserved for it
// first.
func Simulate(c Cache, s Stream) SimResult {
	s.Reserve(c)
	res := SimResult{PageTotal: int64(len(s.IDs))}
	for _, id := range s.IDs {
		if c.Touch(int64(id)) {
			res.PageHits++
		}
	}
	return res
}
