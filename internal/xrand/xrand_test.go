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
