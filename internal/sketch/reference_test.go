package sketch

import (
	"math"
	"sort"

	"ebslab/internal/wire"
)

// The map-based LogQuantile and SpaceSaving the package shipped before their
// storage became ordered arrays, kept verbatim (renamed) as the reference the
// layout differential holds the production types to: same inputs, same
// AppendHash digest, same wire bytes, same answers.

type refLogQuantile struct {
	alpha       float64
	gamma       float64
	invLogGamma float64
	zero        uint64
	buckets     map[int64]uint64
	total       uint64
}

func newRefLogQuantile(alpha float64) *refLogQuantile {
	if !(alpha > 0 && alpha < 0.5) {
		alpha = 0.01
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &refLogQuantile{
		alpha:       alpha,
		gamma:       gamma,
		invLogGamma: 1 / math.Log(gamma),
		buckets:     make(map[int64]uint64),
	}
}

func (l *refLogQuantile) Add(v float64, w uint64) {
	if w == 0 || math.IsNaN(v) {
		return
	}
	l.total += w
	if v <= 0 {
		l.zero += w
		return
	}
	idx := int64(math.Ceil(math.Log(v) * l.invLogGamma))
	l.buckets[idx] += w
}

func (l *refLogQuantile) Merge(o *refLogQuantile) {
	l.zero += o.zero
	l.total += o.total
	for idx, w := range o.buckets {
		l.buckets[idx] += w
	}
}

func (l *refLogQuantile) sortedIdxs() []int64 {
	idxs := make([]int64, 0, len(l.buckets))
	for idx := range l.buckets {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs
}

func (l *refLogQuantile) Quantile(q float64) float64 {
	if l.total == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := uint64(math.Round(q * float64(l.total-1)))
	if rank < l.zero {
		return 0
	}
	cum := l.zero
	idxs := l.sortedIdxs()
	for _, idx := range idxs {
		cum += l.buckets[idx]
		if rank < cum {
			return 2 * math.Pow(l.gamma, float64(idx)) / (l.gamma + 1)
		}
	}
	return 2 * math.Pow(l.gamma, float64(idxs[len(idxs)-1])) / (l.gamma + 1)
}

func (l *refLogQuantile) AppendHash(d *wire.Digest) {
	d.F64(l.alpha)
	d.U64(l.zero)
	d.U64(l.total)
	d.U64(uint64(len(l.buckets)))
	for _, idx := range l.sortedIdxs() {
		d.U64(uint64(idx))
		d.U64(l.buckets[idx])
	}
}

func (l *refLogQuantile) appendBinary(w *wire.Writer) {
	w.U64(l.zero)
	w.U64(l.total)
	w.U32(uint32(len(l.buckets)))
	for _, idx := range l.sortedIdxs() {
		w.U64(uint64(idx))
		w.U64(l.buckets[idx])
	}
}

type refSpaceSaving struct {
	k        int
	counters map[uint64]refCounter
}

type refCounter struct {
	count uint64
	err   uint64
}

func newRefSpaceSaving(k int) *refSpaceSaving {
	if k < 1 {
		k = 1
	}
	return &refSpaceSaving{k: k, counters: make(map[uint64]refCounter, k)}
}

func (s *refSpaceSaving) Add(key, w uint64) {
	if w == 0 {
		return
	}
	if c, ok := s.counters[key]; ok {
		c.count += w
		s.counters[key] = c
		return
	}
	if len(s.counters) < s.k {
		s.counters[key] = refCounter{count: w}
		return
	}
	var (
		minKey uint64
		minC   refCounter
		first  = true
	)
	for k2, c2 := range s.counters {
		if first || c2.count < minC.count || (c2.count == minC.count && k2 < minKey) {
			minKey, minC, first = k2, c2, false
		}
	}
	delete(s.counters, minKey)
	s.counters[key] = refCounter{count: minC.count + w, err: minC.count}
}

func (s *refSpaceSaving) Merge(o *refSpaceSaving) {
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
	s.counters = make(map[uint64]refCounter, s.k)
	for _, e := range entries[:s.k] {
		s.counters[e.Key] = refCounter{count: e.Count, err: e.Err}
	}
}

func (s *refSpaceSaving) Entries() []Entry {
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

func (s *refSpaceSaving) AppendHash(d *wire.Digest) {
	d.U64(uint64(s.k))
	d.U64(uint64(len(s.counters)))
	for _, k := range sortedKeys(s.counters) {
		c := s.counters[k]
		d.U64(k)
		d.U64(c.count)
		d.U64(c.err)
	}
}

func (s *refSpaceSaving) appendBinary(w *wire.Writer) {
	w.U32(uint32(len(s.counters)))
	for _, k := range sortedKeys(s.counters) {
		c := s.counters[k]
		w.U64(k)
		w.U64(c.count)
		w.U64(c.err)
	}
}
