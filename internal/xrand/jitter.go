package xrand

// Jitter is one stage of a JitterBatch row: the scale and mean correction of
// the stage's lognormal exponent, and its tail test.
type Jitter struct {
	Sigma, HalfSigmaSq float64
	// TailCut is TailCut(p) for the stage's tail probability p; 0 (p <= 0)
	// runs no tail test.
	TailCut int64
}

// Tail is one tail test a JitterBatch saw fire: the index in x of the
// exponent drawn just before it, and the uniform drawn just after it.
type Tail struct {
	K int
	U float64
}

// keepMax bounds the Int63 draws Float64 keeps: from 2^63-512 up, float64(v)
// rounds to 2^63 (the tie goes to the even 2^63), v/2^63 is 1, and Float64
// draws again.
const keepMax = 1<<63 - 512

// TailCut returns the least Int63 v with float64(v)/2^63 >= p — keepMax if
// no draw Float64 keeps reaches p, and 0 for p <= 0 or NaN. Conversion to
// float64 is monotone, so for every v below keepMax Float64's value is below
// p exactly when v < TailCut(p): JitterBatch's tail test is an integer
// compare of the raw draw.
func TailCut(p float64) int64 {
	if !(p > 0) {
		return 0
	}
	lo, hi := int64(0), int64(keepMax)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// JitterBatch draws the jitter exponents and tail tests of len(op) rows of
// ns = len(byOp[0]) stages: row i's stage s uses byOp[op[i]][s] and writes
// its exponent to x[i*ns+s], and each tail test that fires appends a Tail.
// It returns tails. The draws, the stream position after them and every
// value are those of this loop on r, with j.TailCut = TailCut(p):
//
//	for each row i, stage s:
//		x[k] = j.Sigma*r.NormFloat64() - j.HalfSigmaSq
//		if p > 0 && r.Float64() < p {
//			tails = append(tails, Tail{k, r.Float64()})
//		}
//
// It is one fused loop on the mirrored source, which is the only source a
// Rand has (init refuses to start the process when the mirror fails its
// proof): the source's step inlined, the ziggurat's fast strip tested inline
// (its slow path is NormFloat64's normSlow), and the tail test an integer
// compare of the raw Int63 with TailCut — a draw Float64 would round to 1 is
// redrawn, as Float64 redraws it.
func JitterBatch[O ~uint8](r *Rand, op []O, byOp *[2][]Jitter, x []float64, tails []Tail) []Tail {
	ns := len(byOp[0])
	s := r.src
	for i, o := range op {
		row := x[i*ns : i*ns+ns]
		for t, j := range byOp[o][:ns] {
			var z float64
			if n := int32(uint32(s.Int63() >> 31)); absInt32(n) < kn[n&0x7F] {
				z = float64(n) * float64(wn[n&0x7F])
			} else {
				z = s.normSlow(n)
			}
			row[t] = j.Sigma*z - j.HalfSigmaSq
			if j.TailCut == 0 {
				continue
			}
			v := int64(keepMax)
			for v >= keepMax {
				v = s.Int63()
			}
			if v < j.TailCut {
				tails = append(tails, Tail{K: i*ns + t, U: r.Float64()})
			}
		}
	}
	return tails
}
