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
// application-level IO stream into the EBS-visible stream.
package guestcache

import (
	"container/list"

	"ebslab/internal/trace"
)

// PageSize is the guest page granularity.
const PageSize int64 = 4 << 10

// IO is one application-level block IO inside the guest.
type IO struct {
	TimeUS int64
	Op     trace.Op
	Offset int64
	Size   int32
}

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

// page is one cached guest page.
type page struct {
	idx   int64
	dirty bool
}

// Cache is the guest page cache.
type Cache struct {
	cfg  Config
	ll   *list.List // front = most recent
	pos  map[int64]*list.Element
	stat Stats

	lastFlush int64
	emit      func(IO) // device-level sink
}

// New creates a page cache that forwards device-level IO to emit.
func New(cfg Config, emit func(IO)) *Cache {
	if cfg.CachePages <= 0 {
		panic("guestcache: cache must hold at least one page")
	}
	if cfg.FlushIntervalUS <= 0 {
		cfg.FlushIntervalUS = 5_000_000
	}
	return &Cache{
		cfg:  cfg,
		ll:   list.New(),
		pos:  make(map[int64]*list.Element, cfg.CachePages),
		emit: emit,
	}
}

// Stats returns the counters so far.
func (c *Cache) Stats() Stats { return c.stat }

// Access runs one application IO through the cache. IOs must arrive in
// non-decreasing time order (the periodic flusher keys off IO timestamps).
func (c *Cache) Access(io IO) {
	c.maybeFlush(io.TimeUS)
	first := io.Offset / PageSize
	last := (io.Offset + int64(io.Size) - 1) / PageSize
	if io.Op == trace.OpRead {
		c.stat.AppReads++
		// Contiguous missing ranges become device reads.
		missStart := int64(-1)
		flushMiss := func(end int64) {
			if missStart < 0 {
				return
			}
			c.stat.DeviceReads++
			c.emit(IO{TimeUS: io.TimeUS, Op: trace.OpRead,
				Offset: missStart * PageSize, Size: int32((end - missStart) * PageSize)})
			missStart = -1
		}
		allHit := true
		for p := first; p <= last; p++ {
			if el, ok := c.pos[p]; ok {
				c.ll.MoveToFront(el)
				flushMiss(p)
				continue
			}
			allHit = false
			if missStart < 0 {
				missStart = p
			}
			c.insert(p, false, io.TimeUS)
		}
		flushMiss(last + 1)
		if allHit {
			c.stat.ReadHits++
		}
		return
	}
	for p := first; p <= last; p++ {
		if el, ok := c.pos[p]; ok {
			c.ll.MoveToFront(el)
			el.Value.(*page).dirty = true
		} else {
			c.insert(p, true, io.TimeUS)
		}
	}
}

// insert adds a page, evicting (and write-back flushing) as needed.
func (c *Cache) insert(idx int64, dirty bool, now int64) {
	if c.ll.Len() >= c.cfg.CachePages {
		back := c.ll.Back()
		pg := back.Value.(*page)
		if pg.dirty {
			c.stat.EvictionFlushedPages++
			c.emit(IO{TimeUS: now, Op: trace.OpWrite, Offset: pg.idx * PageSize, Size: int32(PageSize)})
		}
		c.ll.Remove(back)
		delete(c.pos, pg.idx)
	}
	c.pos[idx] = c.ll.PushFront(&page{idx: idx, dirty: dirty})
}

// maybeFlush runs the periodic write-back: every FlushIntervalUS, all dirty
// pages are written down, coalescing contiguous runs into single IOs.
func (c *Cache) maybeFlush(now int64) {
	if now-c.lastFlush < c.cfg.FlushIntervalUS {
		return
	}
	c.lastFlush = now
	// Collect dirty page indices.
	var dirty []int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		pg := el.Value.(*page)
		if pg.dirty {
			dirty = append(dirty, pg.idx)
			pg.dirty = false
		}
	}
	if len(dirty) == 0 {
		return
	}
	sortInt64(dirty)
	runStart, prev := dirty[0], dirty[0]
	emitRun := func(end int64) {
		c.stat.FlushedPages += int(end - runStart + 1)
		c.emit(IO{TimeUS: now, Op: trace.OpWrite,
			Offset: runStart * PageSize, Size: int32((end - runStart + 1) * PageSize)})
	}
	for _, p := range dirty[1:] {
		if p != prev+1 {
			emitRun(prev)
			runStart = p
		}
		prev = p
	}
	emitRun(prev)
}

// FlushAll forces a final write-back (unmount semantics).
func (c *Cache) FlushAll(now int64) {
	c.lastFlush = now - c.cfg.FlushIntervalUS
	c.maybeFlush(now)
}

// Filter replays an application IO stream through a fresh cache and returns
// the EBS-visible stream plus the cache statistics.
func Filter(cfg Config, app []IO) ([]IO, Stats) {
	var out []IO
	c := New(cfg, func(io IO) { out = append(out, io) })
	var last int64
	for _, io := range app {
		c.Access(io)
		last = io.TimeUS
	}
	c.FlushAll(last + cfg.FlushIntervalUS)
	return out, c.Stats()
}

// sortInt64 is an insertion-free small wrapper around sort for int64s.
func sortInt64(xs []int64) {
	// Simple shell sort: dirty sets are small and nearly sorted.
	for gap := len(xs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(xs); i++ {
			for j := i; j >= gap && xs[j-gap] > xs[j]; j -= gap {
				xs[j-gap], xs[j] = xs[j], xs[j-gap]
			}
		}
	}
}
