package latency

import (
	"math"
	"math/rand"
	"testing"

	"ebslab/internal/trace"
	"ebslab/internal/xrand"
)

// TestExpKernelActive pins the ymm kernel on every host that can run it:
// when CPUID reports AVX2, FMA and OS-saved YMM state but the kernel was not
// selected, the init self-check stopped matching math.Exp, and this fails
// loudly instead of SampleBatch silently running math.Exp forever. A host
// without one of them skips, naming it.
func TestExpKernelActive(t *testing.T) {
	if missing := kernelMissing(); missing != "" {
		t.Skipf("no %s: expInto runs on math.Exp", missing)
	}
	if !expKernel {
		t.Fatal("exp self-check failed on an AVX2+FMA host: SampleBatch runs on math.Exp (a changed math/exp_amd64.s?)")
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
	if !expKernel {
		t.Skip("the kernel is not selected on this host")
	}
	probes := expProbes()
	got := make([]float64, (len(probes)+3)&^3)
	copy(got, probes)
	expGroups(&got[0], len(got)/4)
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

// archExp's constants, spelled as in math/exp_amd64.s.
const (
	expLog2e = 1.4426950408889634073599246810018920                  // LOG2E
	expLn2U  = 0.69314718055966295651160180568695068359375           // LN2U: ln 2's upper half
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12 // LN2L: its lower half

	// exprodata's Taylor coefficients, 1/8! down to 1/1!.
	expT8 = 2.4801587301587301587e-5
	expT7 = 1.9841269841269841270e-4
	expT6 = 1.3888888888888888889e-3
	expT5 = 8.3333333333333333333e-3
	expT4 = 4.1666666666666666667e-2
	expT3 = 1.6666666666666666667e-1
	expT2 = 0.5
	expT1 = 1.0

	// expRound is 1.5·2^52: adding and subtracting it rounds |t| < 2^51 to
	// an integer, ties to even, as archExp's CVTSD2SL does.
	expRound = 0x1.8p52
)

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
	return (x + 1) * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// expEdgeSlices returns deterministic 5·1024-argument slices of in-range
// arguments, each with one argument the kernel must refuse — ±700, 709.79,
// −745.2, ±Inf or NaN — at lane 0, 1, 2 or 3 of the first, a middle or the
// last group, and the group index that argument is in.
func expEdgeSlices() (slices [][]float64, groups []int) {
	const n = 5 * 1024
	edges := []float64{700, -700, 709.79, -745.2, math.Inf(1), math.Inf(-1), math.NaN()}
	seed := uint64(0)
	for _, v := range edges {
		for _, g := range []int{0, n / 8, n/4 - 1} {
			for lane := range 4 {
				x := make([]float64, n)
				for i := range x {
					seed++
					u := float64(xrand.Mix64(seed)>>11) / (1 << 53)
					x[i] = 1398*u - 699
				}
				x[4*g+lane] = v
				slices, groups = append(slices, x), append(groups, g)
			}
		}
	}
	return slices, groups
}

// TestExpKernelEdges: the kernel stops exactly at the group holding an
// argument outside its range, whichever lane it is in and wherever the group
// sits, and expInto hands that group to math.Exp and resumes the kernel
// after it — every result bit for bit math.Exp's.
func TestExpKernelEdges(t *testing.T) {
	slices, groups := expEdgeSlices()
	for s, in := range slices {
		if expKernel {
			got := append([]float64(nil), in...)
			if done := expGroups(&got[0], len(got)/4); done != groups[s] {
				t.Fatalf("slice %d: the kernel converted %d groups, want it to stop at group %d", s, done, groups[s])
			}
		}
		checkExpInto(t, in)
	}
}

// TestExpFallback runs expInto with the kernel deselected, as on a host
// without AVX2 and FMA: math.Exp takes every argument.
func TestExpFallback(t *testing.T) {
	defer func(on bool) { expKernel = on }(expKernel)
	expKernel = false
	slices, _ := expEdgeSlices()
	for _, in := range slices[:4] {
		checkExpInto(t, in)
	}
	checkExpInto(t, expProbes())
}

// checkExpInto holds expInto to math.Exp bit for bit on in.
func checkExpInto(t *testing.T, in []float64) {
	t.Helper()
	got := append([]float64(nil), in...)
	expInto(got)
	for i, a := range in {
		if want := math.Exp(a); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("exp(%v) at %d = %v, math.Exp %v", a, i, got[i], want)
		}
	}
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
