package latency

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ebslab/internal/trace"
)

// TestExpMirrorActive pins the four-lane exponential on amd64, where the
// repository is built and tested: if the init self-check ever stops matching
// math.Exp, this fails loudly instead of SampleBatch silently running
// math.Exp forever.
func TestExpMirrorActive(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the kernel mirrors amd64's math.Exp; GOARCH is %s", runtime.GOARCH)
	}
	if !expLanesOK {
		t.Fatal("exp self-check failed: SampleBatch runs on math.Exp (a CPU without FMA, or a changed math/exp_amd64.s)")
	}
}

// TestExpMatchesMath holds expInto to math.Exp bit for bit on 2^22
// arguments — half in the jitter exponents' (−4, 4), a quarter across the
// kernel's (−700, 700), a quarter over (−800, 800) so groups of four mix
// lanes the kernel takes with lanes math.Exp takes — and on the edges: ±0,
// the kernel's bounds, the overflow threshold, subnormal and zero results,
// ±1e10, ±Inf and NaN. Slices of length 1 to 9 put arguments both in full
// groups of four and in the tail.
func TestExpMatchesMath(t *testing.T) {
	in := []float64{
		0, math.Copysign(0, -1), 700, -700, math.Nextafter(700, 0), math.Nextafter(-700, 0),
		709, 709.782712893384, 709.79, 710, -708.39, -708.4, -709, -720, -744.4, -745.1, -745.2, -746,
		1e10, -1e10, math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, -1e-300, 5e-324, 1e-17,
	}
	r := rand.New(rand.NewSource(1))
	got := make([]float64, 0, 4096)
	for done := 0; done < 1<<22; {
		for len(in) < cap(got) {
			u := r.Float64()
			switch len(in) % 4 {
			case 0, 1:
				in = append(in, 8*u-4)
			case 2:
				in = append(in, 1400*u-700)
			default:
				in = append(in, 1600*u-800)
			}
		}
		got = append(got[:0], in...)
		for k, n := 0, 1; k < len(got); k, n = k+n, n%9+1 {
			expInto(got[k:min(k+n, len(got))])
		}
		for i, a := range in {
			if want := math.Exp(a); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("exp(%v) = %v (%#x), math.Exp %v (%#x)", a, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
		done += len(in)
		in = in[:0]
	}
}

// TestExpSelfCheckRejectsNonFMA: archExp's other branch — for a CPU without
// FMA: each product rounded before its add, four squarings, then + 1 —
// transcribed here differs from the kernel on at least one self-check probe,
// so on a host whose math.Exp takes that branch the self-check fails and
// expInto keeps math.Exp.
func TestExpSelfCheckRejectsNonFMA(t *testing.T) {
	probes := expProbes()
	got := append([]float64(nil), probes...)
	expLanes(got)
	differ := 0
	for i, a := range probes {
		alt := expNoFMA(a)
		if math.Abs(alt/math.Exp(a)-1) > 1e-15 {
			t.Fatalf("the non-FMA transcription is off: exp(%v) = %v, math.Exp %v", a, alt, math.Exp(a))
		}
		if math.Float64bits(alt) != math.Float64bits(got[i]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("archExp's non-FMA branch agrees with the kernel on every probe: a host without FMA would pass the self-check")
	}
	t.Logf("the non-FMA branch differs from the kernel on %d of %d probes", differ, len(probes))
}

// expNoFMA is math/exp_amd64.s's non-FMA branch for |x| < 700.
func expNoFMA(x float64) float64 {
	k := float64(x*expLog2e) + expRound - expRound
	x -= float64(k * expLn2U)
	x -= float64(k * expLn2L)
	x *= 1.0 / 16
	p := expT8
	for _, c := range []float64{expT7, expT6, expT5, expT4, expT3, expT2, expT1} {
		p = float64(p*x) + c
	}
	x = float64(x * p)
	for range 4 {
		x = float64(x * (x + 2))
	}
	return (x + 1) * twoTo(k)
}

// BenchmarkExp compares expInto with the math.Exp loop it replaces, over an
// engine-sized batch of jitter exponents.
func BenchmarkExp(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := make([]float64, int(trace.NumStages)*trace.DefaultBatchCap)
	for i := range x {
		x[i] = 0.3*r.NormFloat64() - 0.045
	}
	y := make([]float64, len(x))
	b.Run("math.Exp", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for k, a := range x {
				y[k] = math.Exp(a)
			}
		}
	})
	b.Run("expInto", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			copy(y, x)
			expInto(y)
		}
	})
}
