package latency

import (
	"math"
	"math/rand"
	"testing"

	"ebslab/internal/trace"
	"ebslab/internal/xrand"
)

// sampleRef is the model's per-IO draw written straight from StageParams,
// uncompiled: per stage a lognormal jitter on base plus transfer cost and,
// with probability TailProb, a Pareto tail. A hit at loc skips the stages
// past the one hosting the cache — it draws nothing for them — and pays
// cacheAccessUS there. It is the reference the compiled table and served
// are held to.
func sampleRef(m *Model, rng *rand.Rand, op trace.Op, size int32, loc CacheLocation, hit bool) [trace.NumStages]float32 {
	params := &m.Read
	if op == trace.OpWrite {
		params = &m.Write
	}
	host := trace.NumStages // no hit: every stage is drawn
	if hit && loc == CNCache {
		host = trace.StageComputeNode
	} else if hit && loc == BSCache {
		host = trace.StageBlockServer
	}
	var out [trace.NumStages]float32
	mib := float64(size) / float64(1<<20)
	for s := trace.Stage(0); s < trace.NumStages && s <= host; s++ {
		p := params[s]
		v := p.BaseUS + p.PerMiBUS*mib
		v *= math.Exp(p.JitterSigma*rng.NormFloat64() - p.JitterSigma*p.JitterSigma/2)
		if p.TailProb > 0 && rng.Float64() < p.TailProb {
			v += p.TailScaleUS / math.Pow(1-rng.Float64(), 1/p.TailAlpha)
		}
		out[s] = float32(v)
	}
	if host < trace.NumStages {
		out[host] += cacheAccessUS
	}
	return out
}

// testModels is the default model and eight randomized ones, some of whose
// stages have TailProb == 0 (no tail draw at all).
func testModels() []*Model {
	models := []*Model{Default()}
	mrng := rand.New(rand.NewSource(99))
	for k := 0; k < 8; k++ {
		m := &Model{}
		for s := 0; s < int(trace.NumStages); s++ {
			randomize := func() StageParams {
				p := StageParams{
					BaseUS:      mrng.Float64() * 200,
					PerMiBUS:    mrng.Float64() * 500,
					JitterSigma: mrng.Float64() * 0.6,
					TailScaleUS: mrng.Float64() * 800,
					TailAlpha:   0.8 + mrng.Float64()*2,
				}
				if mrng.Intn(3) > 0 {
					p.TailProb = mrng.Float64() * 0.02
				}
				return p
			}
			m.Read[s] = randomize()
			m.Write[s] = randomize()
		}
		models = append(models, m)
	}
	return models
}

// TestTableBitIdentical drives sampleRef and Table.SampleInto with twin rng
// streams over the default model and randomized models, requiring
// bit-identical stage vectors (the engine's golden fixtures depend on it).
func TestTableBitIdentical(t *testing.T) {
	for mi, m := range testModels() {
		tab := m.Compile()
		seed := int64(1000 + mi)
		a := rand.New(rand.NewSource(seed))
		b := rand.New(rand.NewSource(seed))
		for i := 0; i < 20000; i++ {
			op := trace.Op(i % 2)
			size := int32((i*4096 + 4096) % (4 << 20))
			want := sampleRef(m, a, op, size, NoCache, false)
			var got [trace.NumStages]float32
			tab.SampleInto(b, op, size, &got)
			if got != want {
				t.Fatalf("model %d draw %d (op %v size %d): %v != %v", mi, i, op, size, got, want)
			}
		}
		// The streams must stay in lockstep, too.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("model %d: rng streams diverged", mi)
		}
	}
}

// TestServedMatchesCachedDraw holds the cache studies' derivation to the
// reference's own cached draw: on twin streams of one seed, served applied
// to SampleInto's uncached vector equals sampleRef drawing the IO as served,
// bit for bit, for every location, hit and miss, reads and writes, on the
// default and the randomized models. The served side draws on the xrand
// mirror, as evaluate does; the reference on plain math/rand.
func TestServedMatchesCachedDraw(t *testing.T) {
	for mi, m := range testModels() {
		tab := m.Compile()
		for _, loc := range []CacheLocation{NoCache, CNCache, BSCache} {
			for i := 0; i < 1000; i++ {
				op, hit := trace.Op(i%2), i%4 < 2
				size := int32(4096 * (1 + i*37%1024))
				seed := int64(mi<<32 | i)
				var lat [trace.NumStages]float32
				rng := xrand.Get(seed)
				tab.SampleInto(rng.Rand, op, size, &lat)
				rng.Release()
				got := served(lat, loc, hit)
				want := sampleRef(m, rand.New(rand.NewSource(seed)), op, size, loc, hit)
				if got != want {
					t.Fatalf("model %d %v hit=%v draw %d (op %v size %d): %v != %v", mi, loc, hit, i, op, size, got, want)
				}
			}
		}
	}
}

// TestSampleBatchMatchesSampleInto holds the batch kernel to the per-IO
// reference row for row: an op mix, 4 KiB to 4 MiB sizes, batch lengths 1,
// 2, 7, 1023 and 1024 through one reused Scratch, on the default model, a
// tail-free one and one whose every stage tails half the time (so the
// Pareto path runs tens of thousands of times). The batch draws on the
// mirrored xrand stream, the reference on plain math/rand, and the two
// streams must end in lockstep.
func TestSampleBatchMatchesSampleInto(t *testing.T) {
	heavy, calm := Default(), Default()
	for s := range heavy.Read {
		heavy.Read[s].TailProb, heavy.Write[s].TailProb = 0.5, 0.5
		calm.Read[s].TailProb, calm.Write[s].TailProb = 0, 0
	}
	lengths := []int{1, 2, 7, 1023, 1024}
	for mi, m := range []*Model{Default(), calm, heavy} {
		tab := m.Compile()
		seed := int64(77 + mi)
		got := xrand.Get(seed)
		want := rand.New(rand.NewSource(seed))
		var sc Scratch
		tailEvents, row := 0, 0
		for round := 0; round < 4; round++ {
			for _, n := range lengths {
				op := make([]trace.Op, n)
				size := make([]int32, n)
				for i := range op {
					op[i] = trace.Op((row + i) % 3 % 2) // reads and writes, unevenly mixed
					size[i] = int32(4096 * (1 + (row+i)*37%1024))
				}
				out := make([][trace.NumStages]float32, n)
				tab.SampleBatch(got, op, size, out, &sc)
				tailEvents += len(sc.tails)
				for i := range out {
					var ref [trace.NumStages]float32
					tab.SampleInto(want, op[i], size[i], &ref)
					if out[i] != ref {
						t.Fatalf("model %d row %d (batch of %d, op %v size %d): %v != %v", mi, row+i, n, op[i], size[i], out[i], ref)
					}
				}
				row += n
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("model %d: batch and per-IO streams diverged", mi)
		}
		got.Release()
		if mi == 2 && tailEvents < 10_000 {
			t.Fatalf("heavy-tail model ran the Pareto path %d times, want >= 10^4", tailEvents)
		}
		if mi == 1 && tailEvents != 0 {
			t.Fatalf("tail-free model drew %d tail events", tailEvents)
		}
	}
}

// BenchmarkSampleBatch compares the batch kernel with per-IO SampleInto on
// the default model over an engine-sized batch.
func BenchmarkSampleBatch(b *testing.B) {
	tab := Default().Compile()
	const n = trace.DefaultBatchCap
	op := make([]trace.Op, n)
	size := make([]int32, n)
	for i := range op {
		op[i] = trace.Op(i % 2)
		size[i] = int32(4096 * (1 + i%64))
	}
	out := make([][trace.NumStages]float32, n)
	rng := xrand.Get(1)
	defer rng.Release()
	b.Run("SampleInto", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i := range out {
				tab.SampleInto(rng.Rand, op[i], size[i], &out[i])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/io")
	})
	b.Run("SampleBatch", func(b *testing.B) {
		var sc Scratch
		for it := 0; it < b.N; it++ {
			tab.SampleBatch(rng, op, size, out, &sc)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/io")
	})
}
