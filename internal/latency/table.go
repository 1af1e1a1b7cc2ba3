package latency

import (
	"math"
	"math/rand"

	"ebslab/internal/trace"
	"ebslab/internal/xrand"
)

// tableStage holds one stage's cost and tail parameters pre-folded into the
// exact constants the sampling loop consumes, so the per-IO path performs no
// derived arithmetic:
//
//   - perByteUS = PerMiBUS / 2^20: division by a power of two is exact, so
//     perByteUS*size rounds identically to PerMiBUS*(size/2^20);
//   - invTailAlpha = 1/TailAlpha, the Pareto inverse-CDF exponent.
//
// The jitter's constants sit beside it in Table.jitter. Each is the same
// float64 the uncompiled draw (the reference in table_test.go) computes per
// IO, so the compiled path is bit-identical to the model's formula.
type tableStage struct {
	baseUS       float64
	perByteUS    float64
	tailProb     float64
	tailScaleUS  float64
	invTailAlpha float64
}

// Table is a latency model compiled for sampling: per-(op, stage) constants
// laid out for branch-light sequential draws. Compile once per run;
// SampleInto draws are bit-identical to the model's uncompiled per-IO
// formula, and SampleBatch's to SampleInto's row after row.
type Table struct {
	stages [2][trace.NumStages]tableStage // [op][stage]
	// jitter is each stage's draw constants, [op][stage], in the form
	// xrand.JitterBatch reads: sigma, halfSigmaSq = sigma^2/2 (the lognormal
	// mean correction) and the tail test's xrand.TailCut.
	jitter [2][]xrand.Jitter
}

// Compile folds the model's per-stage parameters into a sampling table.
func (m *Model) Compile() *Table {
	t := &Table{}
	for op, params := range [2]*[trace.NumStages]StageParams{&m.Read, &m.Write} {
		t.jitter[op] = make([]xrand.Jitter, trace.NumStages)
		for s, p := range params {
			t.stages[op][s] = tableStage{
				baseUS:       p.BaseUS,
				perByteUS:    p.PerMiBUS / float64(1<<20),
				tailProb:     p.TailProb,
				tailScaleUS:  p.TailScaleUS,
				invTailAlpha: 1 / p.TailAlpha,
			}
			t.jitter[op][s] = xrand.Jitter{
				Sigma:       p.JitterSigma,
				HalfSigmaSq: p.JitterSigma * p.JitterSigma / 2,
				TailCut:     xrand.TailCut(p.TailProb),
			}
		}
	}
	return t
}

// opIndex is op's row of the table.
func opIndex(op trace.Op) int {
	if op == trace.OpWrite {
		return 1
	}
	return 0
}

// SampleInto draws the five per-stage latencies of one uncached IO into
// out: per stage in order, a normal for the jitter, then the tail test, then
// the tail's uniform if the test fired. The cache studies (evaluate) draw
// each IO with it and derive the cached vector with served; the engine
// samples whole batches with SampleBatch, for which this is the per-IO
// reference.
func (t *Table) SampleInto(rng *rand.Rand, op trace.Op, size int32, out *[trace.NumStages]float32) {
	o := opIndex(op)
	fsize := float64(size)
	for s := range out {
		p, j := &t.stages[o][s], &t.jitter[o][s]
		v := p.baseUS + p.perByteUS*fsize
		v *= math.Exp(j.Sigma*rng.NormFloat64() - j.HalfSigmaSq)
		if p.tailProb > 0 && rng.Float64() < p.tailProb {
			v += p.tailScaleUS / math.Pow(1-rng.Float64(), p.invTailAlpha)
		}
		out[s] = float32(v)
	}
}

// Scratch is SampleBatch's working memory. The zero value is ready; one
// Scratch serves any number of calls and grows to the largest batch.
type Scratch struct {
	x     []float64    // the batch's 5·n jitter exponents, then their exponentials
	tails []xrand.Tail // the batch's Pareto tail events, in stream order
}

// SampleBatch draws the per-stage latencies of len(out) uncached IOs, row i
// of size size[i] and direction op[i], from rng's stream: bit for bit what
// len(out) successive SampleInto calls on the same stream write, and the
// stream is left where they would leave it. It works in three passes so the
// exponentials run back to back instead of each waiting on the draws around
// it: every draw in SampleInto's order, in one fused loop (xrand.JitterBatch:
// per stage the normal, the tail test, the tail uniform if the test fired);
// the exponentials of all 5·n jitter exponents (expInto); then each stage's
// base cost times its jitter, plus the rare Pareto tails, rounded to float32.
func (t *Table) SampleBatch(rng *xrand.Rand, op []trace.Op, size []int32, out [][trace.NumStages]float32, sc *Scratch) {
	const ns = int(trace.NumStages)
	n := len(out)
	if cap(sc.x) < ns*n {
		sc.x = make([]float64, ns*n)
	}
	x := sc.x[:ns*n]
	tails := xrand.JitterBatch(rng, op[:n], &t.jitter, x, sc.tails[:0])
	expInto(x)
	ti := 0
	for i := 0; i < n; i++ {
		ps := &t.stages[opIndex(op[i])]
		fsize := float64(size[i])
		for s := 0; s < ns; s++ {
			p := &ps[s]
			v := p.baseUS + p.perByteUS*fsize
			v *= x[i*ns+s]
			if ti < len(tails) && tails[ti].K == i*ns+s {
				v += p.tailScaleUS / math.Pow(1-tails[ti].U, p.invTailAlpha)
				ti++
			}
			out[i][s] = float32(v)
		}
	}
	sc.tails = tails
}
