package sketch

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"ebslab/internal/wire"
)

// hostileValues are the LogQuantile inputs the layout differential mixes
// into its streams: the zero bucket's inputs, NaN, subnormals, the extremes
// of the float64 range and both infinities.
var hostileValues = []float64{
	0, math.Copysign(0, -1), -1, -1e300, math.NaN(),
	math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1030,
	1e-300, 1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1),
}

// lqViews returns a summary's two canonical views: its AppendHash digest
// and its wire bytes.
func lqViews(hash func(*wire.Digest), bin func(*wire.Writer)) (string, []byte) {
	d := new(wire.Digest)
	hash(d)
	w := &wire.Writer{}
	bin(w)
	return d.Sum(), w.B
}

// TestSketchLayoutMatchesReference holds the array-backed LogQuantile and
// SpaceSaving to the map-based reference (reference_test.go) on the same
// streams: whole-stream ingest and a split stream merged in both orders must
// give byte-equal AppendHash digests and wire encodings, equal quantiles
// and equal rankings. It also checks the IO-size table against Add.
func TestSketchLayoutMatchesReference(t *testing.T) {
	t.Run("LogQuantile", func(t *testing.T) {
		for seed := rng(1); seed < 9; seed++ {
			r := seed
			n := 1 + int(r.next()%3000)
			vals := make([]float64, n)
			wts := make([]uint64, n)
			for i := range vals {
				switch r.next() % 8 {
				case 0:
					vals[i] = hostileValues[r.next()%uint64(len(hostileValues))]
				case 1:
					vals[i] = math.Pow(10, 600*r.float()-300) // anywhere in range
				default:
					vals[i] = math.Pow(10, 1+4*r.float()) // latency-like
				}
				wts[i] = r.next() % 4 // zero weights included
			}
			build := func(vs []float64, ws []uint64) (*LogQuantile, *refLogQuantile) {
				l, ref := NewLogQuantile(0.01), newRefLogQuantile(0.01)
				for i, v := range vs {
					l.Add(v, ws[i])
					ref.Add(v, ws[i])
				}
				return l, ref
			}
			check := func(what string, l *LogQuantile, ref *refLogQuantile) {
				t.Helper()
				gh, gb := lqViews(l.AppendHash, l.appendBinary)
				wh, wb := lqViews(ref.AppendHash, ref.appendBinary)
				if gh != wh || !bytes.Equal(gb, wb) {
					t.Fatalf("seed %d %s: layout differs from the reference", seed, what)
				}
				if l.total != ref.total {
					t.Fatalf("seed %d %s: count %d, reference %d", seed, what, l.total, ref.total)
				}
				for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
					g, w := l.Quantile(q), ref.Quantile(q)
					if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
						t.Fatalf("seed %d %s: q=%g %v, reference %v", seed, what, q, g, w)
					}
				}
			}
			whole, wholeRef := build(vals, wts)
			check("whole", whole, wholeRef)
			split := int(r.next() % uint64(n+1))
			ab, abRef := build(vals[:split], wts[:split])
			b, bRef := build(vals[split:], wts[split:])
			ab.Merge(b)
			abRef.Merge(bRef)
			check("a+b", ab, abRef)
			ba, baRef := build(vals[split:], wts[split:])
			a, aRef := build(vals[:split], wts[:split])
			ba.Merge(a)
			baRef.Merge(aRef)
			check("b+a", ba, baRef)
			merged, _ := lqViews(ab.AppendHash, ab.appendBinary)
			if ingested, _ := lqViews(whole.AppendHash, whole.appendBinary); merged != ingested {
				t.Fatalf("seed %d: merged state differs from whole-stream ingest", seed)
			}
		}
		// The ordered storage is walked in place: reading a summary allocates
		// nothing.
		l, d := latencyLike(), new(wire.Digest)
		if n := testing.AllocsPerRun(20, func() { l.Quantile(0.99); l.AppendHash(d) }); n != 0 {
			t.Fatalf("Quantile+AppendHash allocate %v times per call", n)
		}
	})

	t.Run("SpaceSaving", func(t *testing.T) {
		for seed := rng(11); seed < 27; seed++ {
			r := seed
			k := []int{1, 2, 8, 32}[r.next()%4]
			n := int(r.next() % 4000)
			keySpace := 1 + r.next()%(4*uint64(k)+8)
			ops := make([][2]uint64, n)
			for i := range ops {
				ops[i] = [2]uint64{r.next() % keySpace, r.next() % 64} // zero weights included
			}
			build := func(part [][2]uint64) (*SpaceSaving, *refSpaceSaving) {
				s, ref := NewSpaceSaving(k), newRefSpaceSaving(k)
				for _, op := range part {
					s.Add(op[0], op[1])
					ref.Add(op[0], op[1])
				}
				return s, ref
			}
			check := func(what string, s *SpaceSaving, ref *refSpaceSaving) {
				t.Helper()
				gh, gb := lqViews(s.AppendHash, s.appendBinary)
				wh, wb := lqViews(ref.AppendHash, ref.appendBinary)
				if gh != wh || !bytes.Equal(gb, wb) {
					t.Fatalf("seed %d k %d %s: layout differs from the reference", seed, k, what)
				}
				ge, we := s.Entries(), ref.Entries()
				if len(ge) != len(we) {
					t.Fatalf("seed %d k %d %s: %d entries, reference %d", seed, k, what, len(ge), len(we))
				}
				for i := range ge {
					if ge[i] != we[i] {
						t.Fatalf("seed %d k %d %s: entry %d %+v, reference %+v", seed, k, what, i, ge[i], we[i])
					}
				}
			}
			whole, wholeRef := build(ops)
			check("whole", whole, wholeRef)
			split := int(r.next() % uint64(n+1))
			ab, abRef := build(ops[:split])
			b, bRef := build(ops[split:])
			ab.Merge(b)
			abRef.Merge(bRef)
			check("a+b", ab, abRef)
			ba, baRef := build(ops[split:])
			a, aRef := build(ops[:split])
			ba.Merge(a)
			baRef.Merge(aRef)
			check("b+a", ba, baRef)
		}
	})

	t.Run("SizeTable", func(t *testing.T) {
		s := NewSet(Config{})
		want := NewLogQuantile(quantileAlpha)
		for size := int32(-4096); size <= 5<<20; size += 512 {
			s.ingest(&dirCount{}, NewSpaceSaving(1), 0, true, size, 0, 0, 0, 1, 0)
			want.Add(float64(size), 1)
		}
		gh, gb := lqViews(s.sizes.AppendHash, s.sizes.appendBinary)
		wh, wb := lqViews(want.AppendHash, want.appendBinary)
		if gh != wh || !bytes.Equal(gb, wb) {
			t.Fatal("the IO-size table disagrees with LogQuantile.Add")
		}
	})
}

// latencyLike is a latency-shaped summary of a few hundred buckets.
func latencyLike() *LogQuantile {
	l := NewLogQuantile(quantileAlpha)
	r := rng(5)
	for i := 0; i < 5000; i++ {
		l.Add(math.Pow(10, 1+4*r.float()), 1)
	}
	return l
}

// sparseLatencySet is a valid Set whose latency sketch holds two buckets
// 2^40 apart: the frame a dense-over-the-span layout could not decode in
// bounded memory.
func sparseLatencySet(gap int64) *Set {
	s := NewSet(Config{TopK: 4, SegPerVD: 2, DurationSec: 4, HLLPrecision: 4})
	s.lat.addBucket(-7, 1)
	s.lat.addBucket(-7+gap, 2)
	return s
}

// TestDecodeSparseBucketsAllocation: decoding two latency buckets 2^40
// apart must cost what two adjacent buckets cost, give or take a page —
// memory follows the buckets, not their span.
func TestDecodeSparseBucketsAllocation(t *testing.T) {
	// Bytes per decode, averaged over enough decodes that the runtime's
	// span-granular allocation accounting washes out.
	allocated := func(frame []byte) uint64 {
		s, err := DecodeSet(frame)
		if err != nil {
			t.Fatalf("DecodeSet: %v", err)
		}
		if !bytes.Equal(s.EncodeBinary(), frame) {
			t.Fatal("decoded sparse set does not re-encode to its frame")
		}
		const runs = 500
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			DecodeSet(frame) //nolint:errcheck — decoded once above
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	near := allocated(sparseLatencySet(1).EncodeBinary())
	far := allocated(sparseLatencySet(1 << 40).EncodeBinary())
	if far > near+1<<10 {
		t.Fatalf("two buckets 2^40 apart decode in %d bytes, adjacent ones in %d", far, near)
	}
	t.Logf("decode allocated %d bytes for adjacent buckets, %d for buckets 2^40 apart", near, far)
}
