package guestcache

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"

	"ebslab/internal/cache"
)

// refCache is the page cache on a container/list LRU with a page map: the
// reference Filter is held to.
type refCache struct {
	cfg       Config
	ll        *list.List // front = most recent
	pos       map[int64]*list.Element
	stat      Stats
	lastFlush int64
	out       []cache.Access
}

type refPage struct {
	idx   int64
	dirty bool
}

func refFilter(cfg Config, app []cache.Access) ([]cache.Access, Stats) {
	c := &refCache{cfg: cfg, ll: list.New(), pos: map[int64]*list.Element{}}
	var last int64
	for _, io := range app {
		c.access(io)
		last = io.TimeUS
	}
	c.lastFlush = last
	c.maybeFlush(last + cfg.FlushIntervalUS)
	return c.out, c.stat
}

func (c *refCache) access(io cache.Access) {
	c.maybeFlush(io.TimeUS)
	first := io.Offset / PageSize
	last := (io.Offset + int64(io.Size) - 1) / PageSize
	if !io.Write {
		c.stat.AppReads++
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
			el.Value.(*refPage).dirty = true
		} else {
			c.insert(p, true, io.TimeUS)
		}
	}
}

func (c *refCache) insert(idx int64, dirty bool, now int64) {
	if c.ll.Len() >= c.cfg.CachePages {
		back := c.ll.Back()
		pg := back.Value.(*refPage)
		if pg.dirty {
			c.stat.EvictionFlushedPages++
			c.out = append(c.out, cache.Access{TimeUS: now, Offset: pg.idx * PageSize, Size: int32(PageSize), Write: true})
		}
		c.ll.Remove(back)
		delete(c.pos, pg.idx)
	}
	c.pos[idx] = c.ll.PushFront(&refPage{idx: idx, dirty: dirty})
}

func (c *refCache) maybeFlush(now int64) {
	if now-c.lastFlush < c.cfg.FlushIntervalUS {
		return
	}
	c.lastFlush = now
	var dirty []int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		pg := el.Value.(*refPage)
		if pg.dirty {
			dirty = append(dirty, pg.idx)
			pg.dirty = false
		}
	}
	if len(dirty) == 0 {
		return
	}
	slices.Sort(dirty)
	runStart, prev := dirty[0], dirty[0]
	emitRun := func(end int64) {
		c.stat.FlushedPages += int(end - runStart + 1)
		c.out = append(c.out, cache.Access{TimeUS: now,
			Offset: runStart * PageSize, Size: int32((end - runStart + 1) * PageSize), Write: true})
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

// TestFilterMatchesReference runs seeded random application streams —
// mixed reads and writes of 1–4 pages, some unaligned, over a small address
// space, with gaps that cross flush intervals — through Filter and the
// reference at capacities 1–64: the device streams and Stats must be equal.
func TestFilterMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := int64(4 + rng.Intn(150))
		var app []cache.Access
		var now int64
		for i := 0; i < 400; i++ {
			now += rng.Int63n(300)
			io := cache.Access{TimeUS: now}
			if rng.Intn(3) == 0 {
				io.Write = true
			}
			io.Offset = (500+rng.Int63n(span))*PageSize + rng.Int63n(2)*rng.Int63n(PageSize)
			io.Size = int32(1 + rng.Int63n(4*PageSize))
			app = append(app, io)
		}
		for capPages := 1; capPages <= 64; capPages++ {
			cfg := Config{CachePages: capPages, FlushIntervalUS: 500 + rng.Int63n(5000)}
			got, gotStats := Filter(cfg, app)
			want, wantStats := refFilter(cfg, app)
			if gotStats != wantStats {
				t.Fatalf("seed %d, %d pages: stats %+v, reference %+v", seed, capPages, gotStats, wantStats)
			}
			if !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("seed %d, %d pages: device IO %d of %d differs from the reference's (%d IOs)", seed, capPages, i, len(got), len(want))
			}
			if capPages == 64 && (gotStats.ReadHits == 0 || gotStats.EvictionFlushedPages+gotStats.FlushedPages == 0) {
				t.Fatalf("seed %d: stats %+v exercise no hit or write-back", seed, gotStats)
			}
		}
	}
}
