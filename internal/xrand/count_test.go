package xrand

import (
	"math"
	"math/rand"
	"testing"
)

func TestGeometricAtLeast1(t *testing.T) {
	rng := Get(9)
	defer rng.Release()
	if GeometricAtLeast1(rng, 0.5) != 1 {
		t.Fatal("mean <= 1 should return 1")
	}
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		v := GeometricAtLeast1(rng, 3)
		if v < 1 {
			t.Fatal("geometric draw below 1")
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-3) > 0.3 {
		t.Fatalf("geometric mean = %v, want ~3", mean)
	}
}

// TestCountFor: the count's mean is lambda, and a zero, negative or NaN
// lambda returns 0 without moving the stream.
func TestCountFor(t *testing.T) {
	rng := Get(11)
	defer rng.Release()
	for _, lambda := range []float64{0.3, 2.75, 17.5} {
		var sum int
		const n = 40000
		for i := 0; i < n; i++ {
			c := CountFor(rng, lambda)
			if c != int(lambda) && c != int(lambda)+1 {
				t.Fatalf("lambda %v: count %d", lambda, c)
			}
			sum += c
		}
		if mean := float64(sum) / n; math.Abs(mean-lambda) > 0.01 {
			t.Fatalf("lambda %v: mean count %v", lambda, mean)
		}
	}

	got, want := Get(5), rand.New(rand.NewSource(5))
	defer got.Release()
	for _, lambda := range []float64{0, -1, math.Inf(-1), math.NaN()} {
		if c := CountFor(got, lambda); c != 0 {
			t.Fatalf("lambda %v: count %d, want 0", lambda, c)
		}
	}
	if got.Int63() != want.Int63() {
		t.Fatal("a count of nothing moved the stream")
	}
}
