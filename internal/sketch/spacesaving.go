package sketch

import (
	"cmp"
	"slices"

	"ebslab/internal/wire"
)

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
//
// The counters are one array of at most K entries in ascending key order:
// capacities are small (8 per disk, 32 globally), so a search, the eviction
// scan and an insert are a few cache lines, and serialization walks the
// array as it is.
type SpaceSaving struct {
	k        int
	counters []Entry // ascending Key, len <= k
}

// NewSpaceSaving creates a summary with capacity k counters (values < 1 are
// clamped to 1).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving{k: k, counters: make([]Entry, 0, min(k, 64))}
}

// Len returns the number of retained counters.
func (s *SpaceSaving) Len() int { return len(s.counters) }

// search returns key's position in the counters, or where it would go: a
// linear scan, the quickest search over a handful of entries.
func (s *SpaceSaving) search(key uint64) (int, bool) {
	for i := range s.counters {
		if k := s.counters[i].Key; k >= key {
			return i, k == key
		}
	}
	return len(s.counters), false
}

// Add ingests weight w of key. Zero weights are ignored.
func (s *SpaceSaving) Add(key, w uint64) {
	if w == 0 {
		return
	}
	i, ok := s.search(key)
	if ok {
		s.counters[i].Count += w
		return
	}
	if len(s.counters) < s.k {
		s.counters = slices.Insert(s.counters, i, Entry{Key: key, Count: w})
		return
	}
	// Evict the minimum counter: smallest count, ties to the smallest key —
	// the first minimum in key order.
	m := 0
	for j := 1; j < len(s.counters); j++ {
		if s.counters[j].Count < s.counters[m].Count {
			m = j
		}
	}
	floor := s.counters[m].Count
	s.counters = slices.Delete(s.counters, m, m+1)
	if m < i {
		i--
	}
	s.counters = slices.Insert(s.counters, i, Entry{Key: key, Count: floor + w, Err: floor})
}

// Merge folds o into s: counts and errors of shared keys are summed, keys
// unique to either side are kept, and the union is truncated back to s's
// capacity in (count desc, err asc, key asc) order. o is only read.
func (s *SpaceSaving) Merge(o *SpaceSaving) {
	union := make([]Entry, 0, len(s.counters)+len(o.counters))
	a, b := s.counters, o.counters
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].Key < b[0].Key:
			union, a = append(union, a[0]), a[1:]
		case b[0].Key < a[0].Key:
			union, b = append(union, b[0]), b[1:]
		default:
			c := a[0]
			c.Count += b[0].Count
			c.Err += b[0].Err
			union, a, b = append(union, c), a[1:], b[1:]
		}
	}
	union = append(append(union, a...), b...)
	if len(union) > s.k {
		slices.SortFunc(union, byRank)
		union = union[:s.k]
		slices.SortFunc(union, func(x, y Entry) int { return cmp.Compare(x.Key, y.Key) })
	}
	s.counters = union
}

// byRank orders counters by (count desc, err asc, key asc).
func byRank(x, y Entry) int {
	if c := cmp.Compare(y.Count, x.Count); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Err, y.Err); c != 0 {
		return c
	}
	return cmp.Compare(x.Key, y.Key)
}

// Entries returns every retained counter ranked by (count desc, err asc,
// key asc).
func (s *SpaceSaving) Entries() []Entry {
	out := slices.Clone(s.counters)
	slices.SortFunc(out, byRank)
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
func (s *SpaceSaving) AppendHash(d *wire.Digest) {
	d.U64(uint64(s.k))
	d.U64(uint64(len(s.counters)))
	for _, c := range s.counters {
		d.U64(c.Key)
		d.U64(c.Count)
		d.U64(c.Err)
	}
}
