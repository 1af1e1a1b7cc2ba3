package sketch

import (
	"math"
	"sort"
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
type LogQuantile struct {
	alpha       float64
	gamma       float64
	invLogGamma float64
	zero        uint64           // weight of values <= 0
	buckets     map[int64]uint64 // bucket index -> weight
	total       uint64
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
		buckets:     make(map[int64]uint64),
	}
}

// Count returns the total ingested weight.
func (l *LogQuantile) Count() uint64 { return l.total }

// Add ingests weight w of value v. NaN values and zero weights are ignored.
func (l *LogQuantile) Add(v float64, w uint64) {
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

// Merge folds o (which must share l's alpha) into l bucket-wise.
func (l *LogQuantile) Merge(o *LogQuantile) {
	l.zero += o.zero
	l.total += o.total
	for idx, w := range o.buckets {
		l.buckets[idx] += w
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
	idxs := make([]int64, 0, len(l.buckets))
	for idx := range l.buckets {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		cum += l.buckets[idx]
		if rank < cum {
			return 2 * math.Pow(l.gamma, float64(idx)) / (l.gamma + 1)
		}
	}
	// Unreachable when counts are consistent; return the top bucket.
	return 2 * math.Pow(l.gamma, float64(idxs[len(idxs)-1])) / (l.gamma + 1)
}

// AppendHash writes the summary's canonical serialization into d.
func (l *LogQuantile) AppendHash(d *digest) {
	d.f64(l.alpha)
	d.u64(l.zero)
	d.u64(l.total)
	d.u64(uint64(len(l.buckets)))
	idxs := make([]int64, 0, len(l.buckets))
	for idx := range l.buckets {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		d.u64(uint64(idx))
		d.u64(l.buckets[idx])
	}
}
