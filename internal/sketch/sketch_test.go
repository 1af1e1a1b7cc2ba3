package sketch

import (
	"math"
	"testing"

	"ebslab/internal/stats"
	"ebslab/internal/wire"
)

// rng is a tiny splitmix64 stream for deterministic test inputs.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	x := uint64(*r)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func TestSpaceSavingExactUnderCapacity(t *testing.T) {
	s := NewSpaceSaving(8)
	want := map[uint64]uint64{1: 10, 2: 30, 3: 5, 4: 100}
	for k, w := range want {
		s.Add(k, w/2)
		s.Add(k, w-w/2)
	}
	es := s.Entries()
	if len(es) != len(want) {
		t.Fatalf("entries = %d, want %d", len(es), len(want))
	}
	for _, e := range es {
		if e.Count != want[e.Key] || e.Err != 0 {
			t.Fatalf("key %d: count %d err %d, want %d err 0", e.Key, e.Count, e.Err, want[e.Key])
		}
	}
	if es[0].Key != 4 || es[1].Key != 2 {
		t.Fatalf("ranking wrong: %+v", es)
	}
}

func TestSpaceSavingErrorBound(t *testing.T) {
	const k = 16
	s := NewSpaceSaving(k)
	truth := make(map[uint64]uint64)
	var total uint64
	r := rng(7)
	// Zipf-ish: key j gets weight proportional to 1/(j+1), interleaved with
	// uniform noise keys to force evictions.
	for i := 0; i < 20000; i++ {
		var key uint64
		if i%2 == 0 {
			key = r.next() % 8
		} else {
			key = 100 + r.next()%500
		}
		w := 1 + r.next()%64
		s.Add(key, w)
		truth[key] += w
		total += w
	}
	if s.Len() > k {
		t.Fatalf("len = %d > capacity %d", s.Len(), k)
	}
	bound := total / k
	for _, e := range s.Entries() {
		tw := truth[e.Key]
		if e.Count < tw {
			t.Fatalf("key %d underestimated: %d < true %d", e.Key, e.Count, tw)
		}
		if e.Count-tw > bound {
			t.Fatalf("key %d overestimate %d exceeds W/k=%d", e.Key, e.Count-tw, bound)
		}
		if e.Err > bound {
			t.Fatalf("key %d err %d exceeds W/k=%d", e.Key, e.Err, bound)
		}
	}
	// Every key with true weight above W/k must be retained.
	retained := map[uint64]bool{}
	for _, e := range s.Entries() {
		retained[e.Key] = true
	}
	for key, tw := range truth {
		if tw > bound && !retained[key] {
			t.Fatalf("heavy key %d (weight %d > %d) evicted", key, tw, bound)
		}
	}
}

func TestSpaceSavingMergeCommutes(t *testing.T) {
	build := func(seed rng, n int) *SpaceSaving {
		s := NewSpaceSaving(8)
		for i := 0; i < n; i++ {
			s.Add(seed.next()%64, 1+seed.next()%16)
		}
		return s
	}
	ab := build(rng(1), 300)
	ab.Merge(build(rng(2), 200))
	ba := build(rng(2), 200)
	ba.Merge(build(rng(1), 300))
	da, db := new(wire.Digest), new(wire.Digest)
	ab.AppendHash(da)
	ba.AppendHash(db)
	if da.Sum() != db.Sum() {
		t.Fatal("SpaceSaving merge is not commutative")
	}
	if ab.Len() > 8 {
		t.Fatalf("merged len %d exceeds capacity", ab.Len())
	}
}

func TestLogQuantileErrorBound(t *testing.T) {
	const alpha = 0.01
	lq := NewLogQuantile(alpha)
	var xs []float64
	r := rng(11)
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~5 decades, the shape of latency data.
		v := math.Pow(10, 1+4*r.float())
		xs = append(xs, v)
		lq.Add(v, 1)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := stats.Quantile(xs, q)
		got := lq.Quantile(q)
		rel := math.Abs(got-exact) / exact
		// alpha bucket error plus a little rank-interpolation slack.
		if rel > 2*alpha {
			t.Fatalf("q=%g: sketch %g vs exact %g, rel err %.4f > %.4f", q, got, exact, rel, 2*alpha)
		}
	}
}

func TestLogQuantileEdgeCases(t *testing.T) {
	lq := NewLogQuantile(0.01)
	if !math.IsNaN(lq.Quantile(0.5)) {
		t.Fatal("empty sketch must report NaN")
	}
	lq.Add(0, 3)
	lq.Add(-5, 1)
	lq.Add(100, 1)
	if got := lq.Quantile(0); got != 0 {
		t.Fatalf("q=0 over zero-heavy data = %g, want 0", got)
	}
	if got := lq.Quantile(1); math.Abs(got-100)/100 > 0.01 {
		t.Fatalf("q=1 = %g, want ~100", got)
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(lq.Quantile(q)) {
			t.Fatalf("q=%v must report NaN", q)
		}
	}
	if lq.total != 5 {
		t.Fatalf("count = %d, want 5", lq.total)
	}
}

func TestLogQuantileMergeCommutes(t *testing.T) {
	build := func(seed rng, n int) *LogQuantile {
		l := NewLogQuantile(0.01)
		for i := 0; i < n; i++ {
			l.Add(math.Pow(10, 5*seed.float()), 1+seed.next()%4)
		}
		return l
	}
	ab := build(rng(3), 500)
	ab.Merge(build(rng(4), 400))
	ba := build(rng(4), 400)
	ba.Merge(build(rng(3), 500))
	da, db := new(wire.Digest), new(wire.Digest)
	ab.AppendHash(da)
	ba.AppendHash(db)
	if da.Sum() != db.Sum() {
		t.Fatal("LogQuantile merge is not commutative")
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{100, 5000, 50000} {
		h := NewHLL(12)
		for i := 0; i < n; i++ {
			h.Add(uint64(i))
			h.Add(uint64(i)) // duplicates must not inflate
		}
		est := h.Estimate()
		rel := math.Abs(est-float64(n)) / float64(n)
		if rel > 0.1 {
			t.Fatalf("n=%d: estimate %.0f, rel err %.3f > 0.1", n, est, rel)
		}
	}
}

func TestHLLMergeMatchesUnionIngest(t *testing.T) {
	a, b, u := NewHLL(12), NewHLL(12), NewHLL(12)
	for i := 0; i < 3000; i++ {
		a.Add(uint64(i))
		u.Add(uint64(i))
	}
	for i := 2000; i < 6000; i++ {
		b.Add(uint64(i))
		u.Add(uint64(i))
	}
	a.Merge(b)
	da, du := new(wire.Digest), new(wire.Digest)
	a.AppendHash(da)
	u.AppendHash(du)
	if da.Sum() != du.Sum() {
		t.Fatal("merged HLL state differs from union ingest")
	}
}

func TestRateMeter(t *testing.T) {
	r := NewRateMeter(4)
	r.Add(0, true, 100)
	r.Add(1, true, 100)
	r.Add(2, false, 100)
	r.Add(3, true, 500) // peak
	if got := r.P2A(true, true); math.Abs(got-500/200.0) > 1e-12 {
		t.Fatalf("P2A = %g, want 2.5", got)
	}
	if got := r.P2A(false, true); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("write P2A = %g, want 4", got)
	}
	// RAR with cap 1000: per-sec loads 100,100,100,500 -> RARs .9,.9,.9,.5
	if got := r.MeanRAR(1000, 1); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("MeanRAR = %g, want 0.8", got)
	}
	if !math.IsNaN(r.MeanRAR(0, 1)) {
		t.Fatal("MeanRAR without caps must be NaN")
	}
	if e := r.EWMA(1, 1); !(e > 100 && e < 500) {
		t.Fatalf("EWMA = %g out of range", e)
	}

	// Merge extends and sums.
	o := NewRateMeter(0)
	o.Add(5, false, 40)
	o.Add(0, true, 1)
	r.Merge(o)
	if len(r.secs) != 6 || r.secs[5].WriteBytes != 40 || r.secs[0].ReadBytes != 101 {
		t.Fatalf("merge wrong: %+v", r.secs)
	}
}

func TestOverlap(t *testing.T) {
	a := []Entry{{Key: 1}, {Key: 2}, {Key: 3}, {Key: 4}}
	b := []Entry{{Key: 2}, {Key: 4}, {Key: 9}}
	if got := Overlap(a, b); got != 0.5 {
		t.Fatalf("overlap = %g, want 0.5", got)
	}
	if !math.IsNaN(Overlap(nil, b)) {
		t.Fatal("empty exact set must be NaN")
	}
}
