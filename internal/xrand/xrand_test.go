package xrand

import (
	"math/rand"
	"testing"
)

// TestMirrorActive pins the fast path on the toolchain the repo builds
// with: if the stdlib generator ever changes shape, this fails loudly
// instead of silently running the slow fallback forever.
func TestMirrorActive(t *testing.T) {
	if !mirrorOK {
		t.Fatal("mirror self-check failed: xrand is running on the math/rand fallback")
	}
}

// TestStreamEquivalence drives the pooled generator and a reference
// math/rand generator through the same mixed draw sequence — every method
// the simulation streams use — and requires bit-identical results.
func TestStreamEquivalence(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 1 << 40, -1234567890123, 890423}
	for _, seed := range seeds {
		got := Get(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			switch i % 7 {
			case 0:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
				}
			case 1:
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %v != %v", seed, i, g, w)
				}
			case 3:
				if g, w := got.Intn(1000), want.Intn(1000); g != w {
					t.Fatalf("seed %d draw %d: Intn %v != %v", seed, i, g, w)
				}
			case 4:
				if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
					t.Fatalf("seed %d draw %d: ExpFloat64 %v != %v", seed, i, g, w)
				}
			case 5:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %v != %v", seed, i, g, w)
				}
			case 6:
				gp, wp := got.Perm(17), want.Perm(17)
				for j := range gp {
					if gp[j] != wp[j] {
						t.Fatalf("seed %d draw %d: Perm %v != %v", seed, i, gp, wp)
					}
				}
			}
		}
		got.Release()
	}
}

// TestPoolReuse exercises the reseed-after-release path: a recycled
// generator must restart the seed's stream from the beginning.
func TestPoolReuse(t *testing.T) {
	const seed = 777
	a := Get(seed)
	first := make([]uint64, 100)
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Release()
	for round := 0; round < 3; round++ {
		b := Get(seed)
		for i := range first {
			if got := b.Uint64(); got != first[i] {
				t.Fatalf("round %d draw %d: %d != first-use %d", round, i, got, first[i])
			}
		}
		b.Release()
	}
}

// TestCacheConsistency checks that a cache-hit reseed and a cold computed
// reseed produce the same stream (the memo stores post-Seed state only).
func TestCacheConsistency(t *testing.T) {
	const seed = 31337
	var cold source
	computeVec(seed, &cold.vec)
	cold.tap, cold.feed = 0, rngLen-rngTap

	warm := Get(seed) // populates the cache on first use in this process
	warm.Release()
	hit := Get(seed) // must restore from cache
	defer hit.Release()
	for i := 0; i < 1500; i++ {
		if g, w := hit.Uint64(), cold.Uint64(); g != w {
			t.Fatalf("draw %d: cache-restored %d != computed %d", i, g, w)
		}
	}
}

// TestGetUncached: an uncached acquisition draws the seed's stream and
// leaves the memo as it found it.
func TestGetUncached(t *testing.T) {
	const seed = 271828
	r, want := GetUncached(seed), rand.New(rand.NewSource(seed))
	defer r.Release()
	for i := 0; i < 1500; i++ {
		if g, w := r.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d: %d != %d", i, g, w)
		}
	}
	if cacheGet(seed) != nil {
		t.Fatal("GetUncached memoized its seed")
	}
}

// tape is a reference source that remembers the first Int63 of each draw, so
// the test can tell which ziggurat path a NormFloat64 call entered.
type tape struct {
	rand.Source
	first int64
	n     int
}

func (t *tape) Int63() int64 {
	v := t.Source.Int63()
	if t.n == 0 {
		t.first = v
	}
	t.n++
	return v
}

// countExit counts which way a NormFloat64 whose first Int63 was first left
// the ziggurat's fast strip, if it did: through the base strip or a wedge.
func countExit(first int64, base, wedge *int) {
	j := int32(uint32(first >> 31))
	switch i := j & 0x7f; {
	case absInt32(j) < kn[i]:
	case i == 0:
		*base++
	default:
		*wedge++
	}
}

// TestDrawMirrorsMatchMathRand holds the mirrored Float64, NormFloat64 and
// Intn to math/rand over 2^20 draws each on every selfCheck seed, and checks
// the draws reached the ziggurat's rare paths (the base strip's tail loop and
// the wedge test) and Intn's every branch: n = 1, powers of two, odd n, the
// rejection loop (2^31-1 runs its test, 2^30+1 takes it about half the time)
// and the Int63n range above 2^31.
func TestDrawMirrorsMatchMathRand(t *testing.T) {
	const draws = 1 << 20
	intns := []int{1, 64, 3, 1<<31 - 1, 1<<30 + 1, 1<<40 + 3, 1 << 62}
	var base, wedge int
	for _, seed := range selfCheckSeeds {
		got, want := Get(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
			}
		}
		got.Release()

		ref := &tape{Source: rand.NewSource(seed)}
		got, want = Get(seed), rand.New(ref)
		for i := 0; i < draws; i++ {
			ref.n = 0
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
			}
			countExit(ref.first, &base, &wedge)
		}
		got.Release()

		got, want = Get(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			n := intns[i%len(intns)]
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) %v != %v", seed, i, n, g, w)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("seed %d: streams diverged after the Intn draws", seed)
		}
		got.Release()
	}
	if base == 0 || wedge == 0 {
		t.Fatalf("ziggurat paths not exercised: base strip %d, wedge %d", base, wedge)
	}
	t.Logf("NormFloat64 left the fast path %d times through the base strip, %d through a wedge", base, wedge)
}

// TestDrawFallback: with the mirror off, Get hands out plain math/rand
// generators and the shadowing methods must return the embedded generator's
// stream.
func TestDrawFallback(t *testing.T) {
	saved := mirrorOK
	mirrorOK = false
	defer func() { mirrorOK = saved }()
	const seed = 4242
	got, want := Get(seed), rand.New(rand.NewSource(seed))
	if got.src != nil {
		t.Fatal("Get returned a mirrored generator with mirrorOK false")
	}
	for i := 0; i < 3000; i++ {
		switch i % 3 {
		case 0:
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("draw %d: Float64 %v != %v", i, g, w)
			}
		case 1:
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("draw %d: NormFloat64 %v != %v", i, g, w)
			}
		case 2:
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("draw %d: Intn %v != %v", i, g, w)
			}
		}
	}
	got.Release()

	// JitterBatch runs its one loop on the embedded generator.
	got, want = Get(seed), rand.New(rand.NewSource(seed))
	if fired := matchJitter(t, got, want, want.NormFloat64, 1<<12); fired == 0 {
		t.Fatal("no tail fired on the fallback path")
	}
	got.Release()
}

// BenchmarkNormFloat64 compares the mirrored draw with the embedded
// generator's interface-dispatched one on the same source.
func BenchmarkNormFloat64(b *testing.B) {
	r := Get(1)
	defer r.Release()
	var sink float64
	b.Run("mirror", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += r.NormFloat64()
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += r.Rand.NormFloat64()
		}
	})
	_ = sink
}

func BenchmarkGetRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Get(int64(i % 64))
		_ = r.Uint64()
		r.Release()
	}
}

func BenchmarkStdlibSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i % 64)))
		_ = r.Uint64()
	}
}
