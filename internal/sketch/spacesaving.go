package sketch

import "sort"

// SpaceSaving is the weighted SpaceSaving heavy-hitter summary (Metwally et
// al.): at most K counters, each an over-estimate of its key's true weight
// with a tracked error bound. For a stream of total weight W the
// overestimation of any retained key is at most W/K, and any key whose true
// weight exceeds W/K is guaranteed to be retained.
//
// Add is deterministic for a fixed ingest order (eviction picks the smallest
// count, ties broken by smallest key). Merge is the mergeable-summaries
// combination: counters are union-summed and the result truncated back to
// capacity by (count desc, err asc, key asc). Union-summing is commutative,
// but truncation is not associative in general — callers that need
// bit-identical results across shardings must either keep key spaces
// disjoint per shard (the engine's per-VD sketches) or fold in a canonical
// order (Set finalization).
type SpaceSaving struct {
	k        int
	counters map[uint64]ssCounter
}

type ssCounter struct {
	count uint64
	err   uint64
}

// NewSpaceSaving creates a summary with capacity k counters (values < 1 are
// clamped to 1).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving{k: k, counters: make(map[uint64]ssCounter, k)}
}

// Len returns the number of retained counters.
func (s *SpaceSaving) Len() int { return len(s.counters) }

// Add ingests weight w of key. Zero weights are ignored.
func (s *SpaceSaving) Add(key, w uint64) {
	if w == 0 {
		return
	}
	if c, ok := s.counters[key]; ok {
		c.count += w
		s.counters[key] = c
		return
	}
	if len(s.counters) < s.k {
		s.counters[key] = ssCounter{count: w}
		return
	}
	// Evict the minimum counter: smallest count, ties to the smallest key.
	// Capacities are small (tens), so a linear scan beats heap bookkeeping.
	var (
		minKey uint64
		minC   ssCounter
		first  = true
	)
	for k2, c2 := range s.counters {
		if first || c2.count < minC.count || (c2.count == minC.count && k2 < minKey) {
			minKey, minC, first = k2, c2, false
		}
	}
	delete(s.counters, minKey)
	s.counters[key] = ssCounter{count: minC.count + w, err: minC.count}
}

// Merge folds o into s: counts and errors of shared keys are summed, keys
// unique to either side are kept, and the union is truncated back to s's
// capacity in (count desc, err asc, key asc) order. o is only read.
func (s *SpaceSaving) Merge(o *SpaceSaving) {
	for k, oc := range o.counters {
		if c, ok := s.counters[k]; ok {
			c.count += oc.count
			c.err += oc.err
			s.counters[k] = c
		} else {
			s.counters[k] = oc
		}
	}
	if len(s.counters) <= s.k {
		return
	}
	entries := s.Entries()
	s.counters = make(map[uint64]ssCounter, s.k)
	for _, e := range entries[:s.k] {
		s.counters[e.Key] = ssCounter{count: e.Count, err: e.Err}
	}
}

// Entries returns every retained counter ranked by (count desc, err asc,
// key asc).
func (s *SpaceSaving) Entries() []Entry {
	out := make([]Entry, 0, len(s.counters))
	for k, c := range s.counters {
		out = append(out, Entry{Key: k, Count: c.count, Err: c.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Err != out[j].Err {
			return out[i].Err < out[j].Err
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Top returns the n highest-ranked entries (fewer if the summary holds
// fewer).
func (s *SpaceSaving) Top(n int) []Entry {
	e := s.Entries()
	if n < len(e) {
		e = e[:n]
	}
	return e
}

// AppendHash writes the summary's canonical serialization into d.
func (s *SpaceSaving) AppendHash(d *digest) {
	d.u64(uint64(s.k))
	d.u64(uint64(len(s.counters)))
	for _, k := range sortedKeys(s.counters) {
		c := s.counters[k]
		d.u64(k)
		d.u64(c.count)
		d.u64(c.err)
	}
}
