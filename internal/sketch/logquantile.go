package sketch

import (
	"math"
	"slices"
	"sort"

	"ebslab/internal/wire"
)

// LogQuantile is a DDSketch-style quantile summary over positive values:
// geometric buckets with ratio gamma = (1+alpha)/(1-alpha) and integer
// counts, so any reported quantile of the ingested positive values carries
// at most alpha relative error and zero rank error. Non-positive values
// collapse into a dedicated zero bucket (reported as exactly 0).
//
// The sketch was chosen over t-digest and KLL deliberately: both of those
// re-cluster on ingest and merge, which makes their state depend on
// ingestion and merge order. LogQuantile's state is a pure function of the
// input multiset — bucket index is a pure function of the value, counts are
// integers — so Add commutes, Merge is a bucket-wise sum (associative,
// commutative), and merged results are byte-identical under any sharding.
//
// Counts live in ordered dense storage: pages of lqPageLen consecutive
// buckets, kept in ascending order and created only where a value lands,
// plus at most lqFillGap empty pages bridging a short gap to a neighbour. A
// run of values therefore fills a contiguous stretch of pages, inside which
// the bucket index gives a page's position directly; memory is O(touched
// buckets) whatever their span — at most 1+lqFillGap pages per touched
// bucket — so a decoded frame with two buckets 2^40 apart holds two pages,
// not 2^40 counters. Walking the pages visits buckets in index order, which
// is all Quantile, AppendHash and the codec need.
type LogQuantile struct {
	alpha       float64
	gamma       float64
	invLogGamma float64
	zero        uint64   // weight of values <= 0
	pages       []lqPage // ascending key
	hint        int      // the page of the last lookup
	total       uint64
}

// lqPageBits sizes a LogQuantile page at 2^lqPageBits buckets; lqFillGap is
// the longest run of missing pages an insert bridges.
const (
	lqPageBits = 4
	lqPageLen  = 1 << lqPageBits
	lqFillGap  = 2
)

// lqPage holds the counts of buckets [key<<lqPageBits, (key+1)<<lqPageBits);
// an untouched bucket counts 0.
type lqPage struct {
	key    int64
	counts [lqPageLen]uint64
}

// NewLogQuantile creates a summary with relative accuracy alpha (values
// outside (0, 0.5) fall back to the 0.01 default).
func NewLogQuantile(alpha float64) *LogQuantile {
	if !(alpha > 0 && alpha < 0.5) {
		alpha = 0.01
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &LogQuantile{
		alpha:       alpha,
		gamma:       gamma,
		invLogGamma: 1 / math.Log(gamma),
	}
}

// bucket is the bucket of a positive value whose math.Log is logV.
func (l *LogQuantile) bucket(logV float64) int64 {
	return int64(math.Ceil(logV * l.invLogGamma))
}

// Add ingests weight w of value v. NaN values and zero weights are ignored.
func (l *LogQuantile) Add(v float64, w uint64) { l.addLogged(v, math.Log(v), w) }

// addLogged is Add for a caller that has already taken math.Log(v) — as a
// batch, so the logarithms run back to back.
func (l *LogQuantile) addLogged(v, logV float64, w uint64) {
	if w == 0 || math.IsNaN(v) {
		return
	}
	if v <= 0 {
		l.total += w
		l.zero += w
		return
	}
	l.addBucket(l.bucket(logV), w)
}

// addBucket ingests weight w (> 0) into bucket idx: Add past the index.
func (l *LogQuantile) addBucket(idx int64, w uint64) {
	l.total += w
	l.page(idx >> lqPageBits).counts[idx&(lqPageLen-1)] += w
}

// page returns the page with key, inserting it in order if there is none.
func (l *LogQuantile) page(key int64) *lqPage {
	n := len(l.pages)
	if h := l.hint; h < n {
		// Inside a contiguous stretch, key's offset from the last page looked
		// up is its position.
		if j := int64(h) + (key - l.pages[h].key); j >= 0 && j < int64(n) && l.pages[j].key == key {
			l.hint = int(j)
			return &l.pages[j]
		}
	}
	i := sort.Search(n, func(i int) bool { return l.pages[i].key >= key })
	if i == n || l.pages[i].key != key {
		// Insert pages [from, to] ∋ key: key's own, and the empty ones
		// bridging a gap of at most lqFillGap to either neighbour.
		from, to := key, key
		if i > 0 && key-l.pages[i-1].key-1 <= lqFillGap {
			from = l.pages[i-1].key + 1
		}
		if i < n && l.pages[i].key-key-1 <= lqFillGap {
			to = l.pages[i].key - 1
		}
		var fill [2*lqFillGap + 1]lqPage
		for k := range fill[:to-from+1] {
			fill[k].key = from + int64(k)
		}
		l.pages = slices.Insert(l.pages, i, fill[:to-from+1]...)
		i += int(key - from)
	}
	l.hint = i
	return &l.pages[i]
}

// each calls fn on every non-empty bucket in ascending index order, until fn
// returns false.
func (l *LogQuantile) each(fn func(idx int64, w uint64) bool) {
	for pi := range l.pages {
		p := &l.pages[pi]
		for j, w := range p.counts {
			if w != 0 && !fn(p.key<<lqPageBits|int64(j), w) {
				return
			}
		}
	}
}

// buckets returns the number of non-empty buckets.
func (l *LogQuantile) buckets() int {
	n := 0
	for pi := range l.pages {
		for _, w := range l.pages[pi].counts {
			if w != 0 {
				n++
			}
		}
	}
	return n
}

// Merge folds o (which must share l's alpha) into l bucket-wise.
func (l *LogQuantile) Merge(o *LogQuantile) {
	l.zero += o.zero
	l.total += o.total
	for pi := range o.pages {
		op := &o.pages[pi]
		p := l.page(op.key)
		for j, w := range op.counts {
			p.counts[j] += w
		}
	}
}

// Quantile returns the q-quantile estimate of the ingested values, or NaN
// for an empty summary or q outside [0, 1] (NaN q included). Positive
// values are reported as the bucket midpoint 2*gamma^i/(gamma+1), which is
// within alpha relative error of every value the bucket holds.
func (l *LogQuantile) Quantile(q float64) float64 {
	if l.total == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	// rank in [0, total-1], matching the order-statistic convention of
	// stats.Quantile (q=0 -> minimum, q=1 -> maximum).
	rank := uint64(math.Round(q * float64(l.total-1)))
	if rank < l.zero {
		return 0
	}
	cum := l.zero
	var at int64
	found := false
	l.each(func(idx int64, w uint64) bool {
		cum += w
		at, found = idx, true
		return rank >= cum
	})
	if !found {
		return math.NaN() // counts inconsistent with total: nothing to report
	}
	// When counts are consistent this is the bucket holding rank; otherwise
	// it is the top bucket.
	return 2 * math.Pow(l.gamma, float64(at)) / (l.gamma + 1)
}

// AppendHash writes the summary's canonical serialization into d.
func (l *LogQuantile) AppendHash(d *wire.Digest) {
	d.F64(l.alpha)
	d.U64(l.zero)
	d.U64(l.total)
	d.U64(uint64(l.buckets()))
	l.each(func(idx int64, w uint64) bool {
		d.U64(uint64(idx))
		d.U64(w)
		return true
	})
}
