package xrand

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

var raceEnabled bool // set by race_test.go

// TestStreamEquivalence drives the pooled generator and a reference
// math/rand generator through the same mixed draw sequence — every method
// the simulation streams use — and requires bit-identical results. The
// seeds include every case of computeVec's normalisation: 0 (Seed's
// substitute 89482311), multiples of 2^31-1 of both signs, 2^31 and the
// int64 extremes. A sweep of Mix64-derived seeds then holds the first 607
// Uint64 of each to rand.NewSource's, which determine the whole post-Seed
// vector (see recoverCooked).
func TestStreamEquivalence(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 1 << 40, -1234567890123, 890423,
		89482311, int32max, -int32max, 3 * int32max, int32max - 1, 1 << 31,
		math.MinInt64, math.MaxInt64}
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

	sweep := 10000
	if testing.Short() {
		sweep = 1000
	}
	for i := 0; i < sweep; i++ {
		seed := int64(Mix64(uint64(i)))
		got, want := Get(seed), rand.NewSource(seed).(rand.Source64)
		for k := 0; k < rngLen; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %v != %v", seed, k, g, w)
			}
		}
		got.Release()
	}
}

// TestGetSteadyStateAllocs: acquiring a stream on a seed the process has
// never seen allocates nothing once the pool is warm, and 10^4 of them
// leave the live heap where it was — seeding keeps no per-seed state.
func TestGetSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	var next uint64
	acquire := func() {
		next++
		r := Get(int64(Mix64(next)))
		r.Uint64()
		r.Release()
	}
	for i := 0; i < 100; i++ {
		acquire()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if allocs := testing.AllocsPerRun(10000, acquire); allocs != 0 {
		t.Errorf("a fresh-seed acquisition allocates %v times, want 0", allocs)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Errorf("10^4 fresh-seed acquisitions grew the live heap by %d B, want <= 64 KiB", grew)
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

// BenchmarkGetRelease acquires a stream on a fresh seed each iteration,
// the gateway's case: every study brings its own fleet seed.
func BenchmarkGetRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Get(int64(Mix64(uint64(i))))
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
