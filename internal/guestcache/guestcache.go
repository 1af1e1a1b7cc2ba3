// Package guestcache models the VM operating system's page cache — the
// first cache level of §2.2 ("the native page cache in the VM's operating
// system can cache part of the IO requests"). It explains the paper's §7.2
// observation that EBS-visible hot blocks are write-dominant: applications
// re-read hot data out of guest memory, so repeated reads never reach the
// block store, while writes must (eventually) be flushed down.
//
// The model is a page-granular LRU with write-back semantics: reads hit in
// memory; writes dirty pages and are flushed to the block device either on
// eviction or by the periodic flusher (pdflush-style). Filter transforms an
// application-level IO stream into the EBS-visible stream, both as
// cache.Access values. The LRU is cache.LRU over the stream's numbered
// pages, with a dirty bit per page beside it.
package guestcache

import (
	"slices"

	"ebslab/internal/cache"
)

// PageSize is the guest page granularity.
const PageSize = cache.PageSize

// Config tunes the page cache.
type Config struct {
	// CachePages is the page-cache capacity in pages.
	CachePages int
	// FlushIntervalUS is the write-back period: dirty pages older than this
	// are flushed (30 s in a default Linux guest; scale down for short
	// windows).
	FlushIntervalUS int64
}

// DefaultConfig is a small guest with a 1 GiB page cache flushing every
// five seconds.
func DefaultConfig() Config {
	return Config{CachePages: int(1 << 30 / PageSize), FlushIntervalUS: 5_000_000}
}

// Stats counts what the cache absorbed and emitted.
type Stats struct {
	AppReads             int
	ReadHits             int
	DeviceReads          int // read IOs that reached the block device
	FlushedPages         int
	EvictionFlushedPages int
}

// pageCache is the guest page cache over one numbered stream.
type pageCache struct {
	interval int64 // Config.FlushIntervalUS
	lru      *cache.LRU
	pages    []int64 // id -> page
	dirty    []bool  // id -> resident and dirty
	// dirtied holds every id dirtied since the last flush, in no order;
	// an entry whose bit is clear again (written back on eviction, or a
	// repeat) is skipped.
	dirtied   []int32
	lastFlush int64
	stat      Stats
	out       []cache.Access // the device-level stream
}

// Filter replays an application IO stream through a fresh cache and returns
// the EBS-visible stream plus the cache statistics. IOs must arrive in
// non-decreasing time order (the periodic flusher keys off IO timestamps).
func Filter(cfg Config, app []cache.Access) ([]cache.Access, Stats) {
	if cfg.CachePages <= 0 {
		panic("guestcache: cache must hold at least one page")
	}
	if cfg.FlushIntervalUS <= 0 {
		cfg.FlushIntervalUS = 5_000_000
	}
	s := cache.Number(app)
	c := &pageCache{interval: cfg.FlushIntervalUS, lru: cache.NewLRU(cfg.CachePages), pages: s.Pages, dirty: make([]bool, len(s.Pages))}
	ids := s.IDs
	var end int64
	for _, io := range app {
		first, last := io.Pages()
		n := max(int(last-first+1), 0)
		c.access(io, first, ids[:n])
		ids = ids[n:]
		end = io.TimeUS
	}
	c.flush(end + cfg.FlushIntervalUS)
	return c.out, c.stat
}

// access runs one application IO, whose pages from first on are ids,
// through the cache.
func (c *pageCache) access(io cache.Access, first int64, ids []int32) {
	if io.TimeUS-c.lastFlush >= c.interval {
		c.flush(io.TimeUS)
	}
	if io.Write {
		for _, id := range ids {
			c.touch(id, io.TimeUS)
			if !c.dirty[id] {
				c.dirty[id] = true
				c.dirtied = append(c.dirtied, id)
			}
		}
		return
	}
	c.stat.AppReads++
	// Contiguous missing ranges become device reads.
	missStart := int64(-1)
	flushMiss := func(end int64) {
		if missStart < 0 {
			return
		}
		c.stat.DeviceReads++
		c.out = append(c.out, cache.Access{TimeUS: io.TimeUS,
			Offset: missStart * PageSize, Size: int32((end - missStart) * PageSize)})
		missStart = -1
	}
	allHit := true
	for i, id := range ids {
		p := first + int64(i)
		if c.touch(id, io.TimeUS) {
			flushMiss(p)
			continue
		}
		allHit = false
		if missStart < 0 {
			missStart = p
		}
	}
	flushMiss(first + int64(len(ids)))
	if allHit {
		c.stat.ReadHits++
	}
}

// touch runs one page through the LRU and writes back the dirty page a miss
// evicts.
func (c *pageCache) touch(id int32, now int64) bool {
	hit, evicted := c.lru.Admit(int64(id))
	if evicted >= 0 && c.dirty[evicted] {
		c.dirty[evicted] = false
		c.stat.EvictionFlushedPages++
		c.out = append(c.out, cache.Access{TimeUS: now, Offset: c.pages[evicted] * PageSize, Size: int32(PageSize), Write: true})
	}
	return hit
}

// flush is the periodic write-back: all dirty pages are written down,
// contiguous runs coalesced into single IOs. Ids follow page order, so
// sorted ids are sorted pages.
func (c *pageCache) flush(now int64) {
	c.lastFlush = now
	slices.Sort(c.dirtied)
	start := len(c.out)
	for _, id := range c.dirtied {
		if !c.dirty[id] {
			continue
		}
		c.dirty[id] = false
		c.stat.FlushedPages++
		off := c.pages[id] * PageSize
		if n := len(c.out) - 1; n >= start && c.out[n].Offset+int64(c.out[n].Size) == off {
			c.out[n].Size += int32(PageSize)
		} else {
			c.out = append(c.out, cache.Access{TimeUS: now, Offset: off, Size: int32(PageSize), Write: true})
		}
	}
	c.dirtied = c.dirtied[:0]
}
