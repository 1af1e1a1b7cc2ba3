package latency

import (
	"math"

	"ebslab/internal/xrand"
)

// expInto replaces every x[k] with math.Exp(x[k]), bit for bit: the
// exponential pass of SampleBatch. math.Exp on amd64 is archExp
// (math/exp_amd64.s), whose FMA branch is a chain of ~20 dependent scalar
// operations; expGroups runs that branch operation for operation on four
// arguments to a ymm register, the same bits four at a time. A group it stops
// at (an argument outside (−700, 700), where archExp's overflow, underflow
// and subnormal paths begin, or a NaN) and the last <4 arguments go through
// math.Exp, as does everything on a host the kernel is not selected on.
func expInto(x []float64) {
	i := 0
	if expKernel {
		for n := len(x) &^ 3; i < n; {
			i += 4 * expGroups(&x[i], (n-i)/4)
			for end := min(i+4, n); i < end; i++ {
				x[i] = math.Exp(x[i])
			}
		}
	}
	for ; i < len(x); i++ {
		x[i] = math.Exp(x[i])
	}
}

// expKernel selects expGroups: only where kernelMissing finds nothing
// missing, and only if it reproduced math.Exp bit for bit on every expProbes
// argument at init. A host falling back keeps math.Exp — slower, never wrong,
// as it is the function mirrored. (xrand refuses to start instead: its only
// alternative would be a different stream.)
var expKernel = kernelMissing() == "" && expSelfCheck()

// expSelfCheck reports whether expGroups matches math.Exp on expProbes.
func expSelfCheck() bool {
	probes := expProbes()
	got := make([]float64, (len(probes)+3)&^3) // zero-padded to whole groups
	copy(got, probes)
	if expGroups(&got[0], len(got)/4) != len(got)/4 {
		return false
	}
	for i, a := range probes {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(a)) {
			return false
		}
	}
	return true
}

// expMax bounds the kernel's arguments: inside (−700, 700), |k| <= 1010, so
// 2^k and every result are normal.
const expMax = 700

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
