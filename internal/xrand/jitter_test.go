package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// jitterStages is the table the JitterBatch tests draw on: five stages per
// op whose tail probabilities mix no tail test, the latency model's rare
// tails and tails that fire half the time.
var jitterStages = [2][5]struct{ sigma, p float64 }{
	{{0.25, 0.5}, {0.2, 0}, {0.25, 0.004}, {0.35, 0.5}, {0.4, 0.006}},
	{{0.25, 0.005}, {0.2, 0.5}, {0.25, 0}, {0.35, 0.002}, {0.4, 0.5}},
}

func jitterTable() *[2][]Jitter {
	var t [2][]Jitter
	for op, stages := range jitterStages {
		for _, st := range stages {
			t[op] = append(t[op], Jitter{Sigma: st.sigma, HalfSigmaSq: st.sigma * st.sigma / 2, TailCut: TailCut(st.p)})
		}
	}
	return &t
}

// jitterLoop is JitterBatch's specification, the loop its doc comment
// states, on math/rand; norm draws each normal so a test can watch the
// ziggurat.
func jitterLoop(r *rand.Rand, norm func() float64, op []uint8, x []float64, tails []Tail) []Tail {
	for i, o := range op {
		for s, st := range jitterStages[o] {
			k := i*len(jitterStages[o]) + s
			x[k] = st.sigma*norm() - st.sigma*st.sigma/2
			if st.p > 0 && r.Float64() < st.p {
				tails = append(tails, Tail{k, r.Float64()})
			}
		}
	}
	return tails
}

// matchJitter draws rows rows through JitterBatch on got and jitterLoop on
// want, in batches of 1, 2, 7, 1023 and 1024 rows of mixed ops, fails on the
// first exponent or tail that differs or if the streams end out of step, and
// returns how many tails fired.
func matchJitter(t *testing.T, got *Rand, want *rand.Rand, norm func() float64, rows int) int {
	t.Helper()
	byOp := jitterTable()
	lengths := []int{1, 2, 7, 1023, 1024}
	op := make([]uint8, 1024)
	gx, wx := make([]float64, 5*1024), make([]float64, 5*1024)
	var gt, wt []Tail
	fired := 0
	for row, b := 0, 0; row < rows; b++ {
		n := min(lengths[b%len(lengths)], rows-row)
		for i := range op[:n] {
			op[i] = uint8((row + i) % 3 % 2)
		}
		gt = JitterBatch(got, op[:n], byOp, gx[:5*n], gt[:0])
		wt = jitterLoop(want, norm, op[:n], wx[:5*n], wt[:0])
		for k := range 5 * n {
			if gx[k] != wx[k] {
				t.Fatalf("row %d stage %d: exponent %v, loop %v", row+k/5, k%5, gx[k], wx[k])
			}
		}
		if len(gt) != len(wt) {
			t.Fatalf("rows %d..%d: %d tails, loop %d", row, row+n, len(gt), len(wt))
		}
		for i := range gt {
			if gt[i] != wt[i] {
				t.Fatalf("rows %d..%d: tail %d is %+v, loop %+v", row, row+n, i, gt[i], wt[i])
			}
		}
		fired += len(gt)
		row += n
	}
	if got.Int63() != want.Int63() {
		t.Fatal("JitterBatch and the loop left their streams out of step")
	}
	return fired
}

// TestJitterBatchMatchesLoop holds JitterBatch to its per-draw loop on
// math/rand: 2^20 rows on every selfCheck seed (2^16 under -short), through
// the ziggurat's base strip and wedges, with at least 10^4 tails fired.
func TestJitterBatchMatchesLoop(t *testing.T) {
	rows := 1 << 20
	if testing.Short() {
		rows = 1 << 16
	}
	var base, wedge, fired int
	for _, seed := range selfCheckSeeds {
		ref := &tape{Source: rand.NewSource(seed)}
		want := rand.New(ref)
		norm := func() float64 {
			ref.n = 0
			z := want.NormFloat64()
			countExit(ref.first, &base, &wedge)
			return z
		}
		got := Get(seed)
		fired += matchJitter(t, got, want, norm, rows)
		got.Release()
	}
	if base == 0 || wedge == 0 || fired < 10_000 {
		t.Fatalf("paths not exercised: base strip %d, wedge %d, tails %d", base, wedge, fired)
	}
	t.Logf("%d tails fired; normals left the fast strip %d times through the base strip, %d through a wedge", fired, base, wedge)
}

// TestTailCutBoundary: for every Int63 within 4,096 of TailCut(p), for the
// latency model's four tail probabilities, and within 4,096 of keepMax
// (2^63-512), the integer test v < TailCut(p) agrees with Float64's
// float64(v)/2^63 < p on every draw Float64 keeps, and the draws at or above
// keepMax are exactly the ones Float64 redraws.
func TestTailCutBoundary(t *testing.T) {
	for _, p := range []float64{0.002, 0.004, 0.005, 0.006} {
		cut := TailCut(p)
		for _, c := range []int64{cut, keepMax} {
			for d := int64(-4096); d <= 4096 && d <= math.MaxInt64-c; d++ {
				v := c + d
				f := float64(v) / (1 << 63)
				if (v >= keepMax) != (f == 1) {
					t.Fatalf("Int63 %d: Float64 reads %v, but v >= keepMax is %v", v, f, v >= keepMax)
				}
				if v < keepMax && (v < cut) != (f < p) {
					t.Fatalf("p %v, Int63 %d: v < TailCut (%d) is %v, Float64 < p is %v", p, v, cut, v < cut, f < p)
				}
			}
		}
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{0, 0}, {-0.5, 0}, {math.NaN(), 0},
		{math.SmallestNonzeroFloat64, 1}, {1, keepMax}, {2, keepMax}, {math.Inf(1), keepMax},
	} {
		if got := TailCut(c.p); got != c.want {
			t.Errorf("TailCut(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}
