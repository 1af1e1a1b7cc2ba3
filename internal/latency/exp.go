package latency

import (
	"math"
	"runtime"

	"ebslab/internal/xrand"
)

// expInto replaces every x[k] with math.Exp(x[k]), bit for bit: the
// exponential pass of SampleBatch.
//
// On amd64 math.Exp is the assembly archExp (math/exp_amd64.s). On a CPU
// with FMA it runs that file's avxfma branch, a chain of ~20 dependent
// floating-point operations, so a loop of calls runs at the chain's latency.
// expLanes is the branch transcribed operation for operation and run on four
// arguments at once: four independent chains in flight, the same bits.
func expInto(x []float64) {
	if !expLanesOK {
		for k, a := range x {
			x[k] = math.Exp(a)
		}
		return
	}
	expLanes(x)
}

// expLanesOK selects expLanes: only on amd64, and only if it reproduced
// math.Exp bit for bit on every expProbes argument at init (xrand's rule:
// prove the mirror, else fall back). On an amd64 CPU without FMA archExp
// takes its other branch, which rounds the products this one fuses; the
// probes catch the difference and the host keeps math.Exp — slower, never
// wrong.
var expLanesOK = runtime.GOARCH == "amd64" && expSelfCheck()

// expSelfCheck reports whether expLanes matches math.Exp on expProbes.
func expSelfCheck() bool {
	probes := expProbes()
	got := append([]float64(nil), probes...)
	expLanes(got)
	for i, a := range probes {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(a)) {
			return false
		}
	}
	return true
}

// expProbes returns the self-check's 2,054 arguments: 1,024 spread over the
// jitter exponents' (−4, 4), 1,024 over the kernel's (−700, 700), ±0, ±1 and
// the kernel's edges.
func expProbes() []float64 {
	p := []float64{0, math.Copysign(0, -1), 1, -1, math.Nextafter(expMax, 0), math.Nextafter(-expMax, 0)}
	for i := uint64(0); i < 1024; i++ {
		u := float64(xrand.Mix64(i)>>11) / (1 << 53)
		p = append(p, 8*u-4, 2*expMax*u-expMax)
	}
	return p
}

// expLanes is expInto's kernel: exp4 on each group of four arguments and on
// the last few one at a time, with math.Exp for any argument outside
// (−700, 700) — where archExp's overflow, underflow and subnormal paths
// begin — or NaN.
func expLanes(x []float64) {
	k := 0
	for ; k+4 <= len(x); k += 4 {
		q := (*[4]float64)(x[k : k+4])
		if math.Abs(q[0]) < expMax && math.Abs(q[1]) < expMax && math.Abs(q[2]) < expMax && math.Abs(q[3]) < expMax {
			y := exp4(lanes{q[0], q[1], q[2], q[3]})
			q[0], q[1], q[2], q[3] = y.a, y.b, y.c, y.d
			continue
		}
		for l, a := range q {
			q[l] = expOne(a)
		}
	}
	for ; k < len(x); k++ {
		x[k] = expOne(x[k])
	}
}

// expOne is one argument through exp4, or through math.Exp outside its range.
func expOne(a float64) float64 {
	if math.Abs(a) < expMax {
		return exp4(lanes{a: a}).a
	}
	return math.Exp(a)
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
	// expMax bounds the kernel's arguments: inside (−700, 700), |k| <= 1010,
	// so 2^k and every result are normal.
	expMax = 700
)

// lanes is four independent arguments in flight through exp4. A struct of
// four float64s stays in registers where an array would not, and each method
// applies one step to all four lanes, so the four dependency chains
// interleave instruction by instruction. mul rounds each product explicitly
// (float64(·)), so the compiler can never fuse it into a following add.
type lanes struct{ a, b, c, d float64 }

func splat(v float64) lanes { return lanes{v, v, v, v} }

func (v lanes) add(c float64) lanes { return lanes{v.a + c, v.b + c, v.c + c, v.d + c} }

func (v lanes) mul(w lanes) lanes {
	return lanes{float64(v.a * w.a), float64(v.b * w.b), float64(v.c * w.c), float64(v.d * w.d)}
}

// fma returns v·w + c, rounded once (VFMADD213SD).
func (v lanes) fma(w lanes, c float64) lanes {
	return lanes{math.FMA(v.a, w.a, c), math.FMA(v.b, w.b, c), math.FMA(v.c, w.c, c), math.FMA(v.d, w.d, c)}
}

// fnma returns v − k·c, rounded once (VFNMADD231SD).
func (v lanes) fnma(k lanes, c float64) lanes {
	return lanes{math.FMA(-k.a, c, v.a), math.FMA(-k.b, c, v.b), math.FMA(-k.c, c, v.c), math.FMA(-k.d, c, v.d)}
}

// pow2 returns 2^k for integral k with a normal power, its exponent field
// set directly as archExp's ldexp step sets it.
func (k lanes) pow2() lanes { return lanes{twoTo(k.a), twoTo(k.b), twoTo(k.c), twoTo(k.d)} }

func twoTo(k float64) float64 { return math.Float64frombits(uint64(int64(k)+1023) << 52) }

// exp4 is archExp's avxfma branch on four arguments in (−700, 700), step
// for step.
func exp4(x lanes) lanes {
	// k = x·log2e rounded to an integer, ties to even (MULSD, CVTSD2SL,
	// CVTSL2SD).
	k := x.mul(splat(expLog2e)).add(expRound).add(-expRound)
	// r = (x − k·ln 2)/16, ln 2 in two parts (VFNMADD231SD ×2, MULSD).
	r := x.fnma(k, expLn2U).fnma(k, expLn2L).mul(splat(1.0 / 16))
	// e^r − 1 = r·p(r), p by Horner's rule (VFMADD213SD ×7, MULSD).
	p := splat(expT8).fma(r, expT7).fma(r, expT6).fma(r, expT5).fma(r, expT4).fma(r, expT3).fma(r, expT2).fma(r, expT1)
	r = r.mul(p)
	// Square back up sixteenfold, e^2r − 1 = (e^r − 1)(e^r − 1 + 2): three
	// times on their own (VADDSD, MULSD), the fourth fused with the final
	// + 1 (VADDSD, VFMADD213SD).
	r = r.mul(r.add(2))
	r = r.mul(r.add(2))
	r = r.mul(r.add(2))
	r = r.fma(r.add(2), 1)
	// Scale by 2^k (MULSD).
	return r.mul(k.pow2())
}
