package latency

import (
	"math"
	"math/rand"

	"ebslab/internal/trace"
	"ebslab/internal/xrand"
)

// tableStage holds one stage's parameters pre-folded into the exact
// constants the sampling loop consumes, so the per-IO path performs no
// derived arithmetic:
//
//   - perByteUS = PerMiBUS / 2^20: division by a power of two is exact, so
//     perByteUS*size rounds identically to PerMiBUS*(size/2^20);
//   - halfSigmaSq = sigma^2/2, the lognormal mean correction;
//   - invTailAlpha = 1/TailAlpha, the Pareto inverse-CDF exponent.
//
// Each is the same float64 the uncompiled Sample computes per IO, so the
// compiled path is bit-identical.
type tableStage struct {
	baseUS       float64
	perByteUS    float64
	sigma        float64
	halfSigmaSq  float64
	tailProb     float64
	tailScaleUS  float64
	invTailAlpha float64
}

// Table is a latency model compiled for the uncached hot path: per-(op,
// stage) constants laid out for branch-light sequential sampling. Compile
// once per run; SampleInto draws are bit-identical to
// Model.Sample(rng, op, size, NoCache, false), and SampleBatch's to
// SampleInto's row after row.
type Table struct {
	stages [2][trace.NumStages]tableStage // [op][stage]
}

// Compile folds the model's per-stage parameters into a sampling table.
func (m *Model) Compile() *Table {
	t := &Table{}
	for op, params := range [2]*[trace.NumStages]StageParams{&m.Read, &m.Write} {
		for s := 0; s < int(trace.NumStages); s++ {
			p := params[s]
			t.stages[op][s] = tableStage{
				baseUS:       p.BaseUS,
				perByteUS:    p.PerMiBUS / float64(1<<20),
				sigma:        p.JitterSigma,
				halfSigmaSq:  p.JitterSigma * p.JitterSigma / 2,
				tailProb:     p.TailProb,
				tailScaleUS:  p.TailScaleUS,
				invTailAlpha: 1 / p.TailAlpha,
			}
		}
	}
	return t
}

// opStages returns op's five stage rows.
func (t *Table) opStages(op trace.Op) *[trace.NumStages]tableStage {
	if op == trace.OpWrite {
		return &t.stages[1]
	}
	return &t.stages[0]
}

// SampleInto draws the five per-stage latencies of one uncached IO into
// out, consuming the same rng stream — and producing the same bits — as
// Model.Sample(rng, op, size, NoCache, false). Cache studies keep using
// Model.Sample; the engine samples whole batches with SampleBatch, for which
// this is the per-IO reference.
func (t *Table) SampleInto(rng *rand.Rand, op trace.Op, size int32, out *[trace.NumStages]float32) {
	ps := t.opStages(op)
	fsize := float64(size)
	for s := 0; s < int(trace.NumStages); s++ {
		p := &ps[s]
		v := p.baseUS + p.perByteUS*fsize
		v *= math.Exp(p.sigma*rng.NormFloat64() - p.halfSigmaSq)
		if p.tailProb > 0 && rng.Float64() < p.tailProb {
			v += p.tailScaleUS / math.Pow(1-rng.Float64(), p.invTailAlpha)
		}
		out[s] = float32(v)
	}
}

// Scratch is SampleBatch's working memory. The zero value is ready; one
// Scratch serves any number of calls and grows to the largest batch.
type Scratch struct {
	x     []float64  // the batch's 5·n jitter exponents, then their exponentials
	tails []tailDraw // the batch's Pareto tail events, in stream order
}

// tailDraw is one tail event: the flat stage index it lands on and its
// inverse-CDF uniform.
type tailDraw struct {
	k int
	u float64
}

// SampleBatch draws the per-stage latencies of len(out) uncached IOs, row i
// of size size[i] and direction op[i], from rng's stream: bit for bit what
// len(out) successive SampleInto calls on the same stream write, and the
// stream is left where they would leave it. It works in three passes so the
// costly math.Exp calls run back to back instead of each waiting on the
// draws around it: first every draw, in SampleInto's order (per stage: the
// normal, the tail test, the tail uniform if the test fired); then one tight
// math.Exp loop over all 5·n jitter exponents; then each stage's base cost
// times its jitter, plus the rare Pareto tails, rounded to float32.
func (t *Table) SampleBatch(rng *xrand.Rand, op []trace.Op, size []int32, out [][trace.NumStages]float32, sc *Scratch) {
	const ns = int(trace.NumStages)
	n := len(out)
	if cap(sc.x) < ns*n {
		sc.x = make([]float64, ns*n)
	}
	x := sc.x[:ns*n]
	tails := sc.tails[:0]
	for i := 0; i < n; i++ {
		ps := t.opStages(op[i])
		for s := 0; s < ns; s++ {
			p := &ps[s]
			x[i*ns+s] = p.sigma*rng.NormFloat64() - p.halfSigmaSq
			if p.tailProb > 0 && rng.Float64() < p.tailProb {
				tails = append(tails, tailDraw{k: i*ns + s, u: rng.Float64()})
			}
		}
	}
	for k, a := range x {
		x[k] = math.Exp(a)
	}
	ti := 0
	for i := 0; i < n; i++ {
		ps := t.opStages(op[i])
		fsize := float64(size[i])
		for s := 0; s < ns; s++ {
			p := &ps[s]
			v := p.baseUS + p.perByteUS*fsize
			v *= x[i*ns+s]
			if ti < len(tails) && tails[ti].k == i*ns+s {
				v += p.tailScaleUS / math.Pow(1-tails[ti].u, p.invTailAlpha)
				ti++
			}
			out[i][s] = float32(v)
		}
	}
	sc.tails = tails
}
