// Package xrand provides pooled math/rand generators whose streams are
// bit-identical to rand.New(rand.NewSource(seed)) at a fraction of the
// seeding cost. math/rand's lagged-Fibonacci source spends ~13µs per Seed
// filling its 607-word state vector through a 1,841-step dependent chain of
// its Lehmer scrambler; the simulation engine derives several fresh streams
// per virtual disk per run, and the gateway a fresh set per study.
//
// xrand removes that cost with a closed form: the scrambler's k-th value is
// a power of its multiplier times the seed, so each vector word is three
// independent multiply-mods (computeVec), ~3µs per seed with nothing kept
// per seed. The generator objects themselves are pooled, so acquisition
// allocates nothing.
//
// Determinism is load-bearing here (golden fixtures pin every byte of the
// engine's output), so the package proves its own equivalence at init time:
// it reconstructs the stdlib's additive-constant table from an observed
// output stream and verifies a mirrored source against math/rand on several
// seeds. There is no fallback: if the running stdlib ever changes its
// generator, the self-check fails and the process refuses to start, since a
// run on any other stream could never match a pinned fingerprint.
//
// The three draws the simulation's hot loops make — Float64, NormFloat64 and
// Intn — are mirrored too (draw.go): *Rand's own methods shadow the embedded
// *rand.Rand's and run on the concrete source, so a draw costs no interface
// call through rand.Source. The same init self-check proves them against
// math/rand.
// JitterBatch (jitter.go) is the latency model's whole batch of draws — per
// stage a normal, a tail test and, if it fires, a uniform — as one loop on
// the concrete source, its tail test an integer compare.
package xrand

import (
	"math/rand"
	"sync"
)

// Mix64 is the splitmix64 finaliser: a fast bijective 64-bit mixer. Every
// derived seed, sampling decision and sketch hash in the module goes through
// it, so streams keyed by adjacent integers come out decorrelated.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SubSeed derives the seed of a named stream (family tag, entity) from a
// master seed, so regenerating one entity never depends on generation order.
// Tags must be distinct per stream family.
func SubSeed(master int64, tag, entity uint64) int64 {
	h := Mix64(uint64(master) ^ Mix64(tag))
	return int64(Mix64(h ^ Mix64(entity)))
}

// Lagged-Fibonacci shape of math/rand's rngSource.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// source mirrors math/rand.rngSource: same state, same update rule, so a
// seeded mirror emits the identical Uint64/Int63 stream.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Seed implements rand.Source: it positions the mirror at the exact
// post-Seed state of rngSource.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	computeVec(seed, &s.vec)
}

// Seed's scrambler is Park & Miller's minimal-standard Lehmer generator,
// x' = 48271*x mod (2^31-1), so its k-th value from x0 is 48271^k*x0 mod
// (2^31-1). lehmerA3 steps three values, lehmerA21 the twenty Seed discards.
const (
	lehmerA   = 48271
	lehmerA2  = lehmerA * lehmerA % int32max
	lehmerA3  = lehmerA2 * lehmerA % int32max
	lehmerA6  = lehmerA3 * lehmerA3 % int32max
	lehmerA21 = lehmerA6 * lehmerA6 % int32max * lehmerA6 % int32max * lehmerA3 % int32max
)

// mulmod returns x*y mod 2^31-1 for x, y < 2^31: the product is below 2^62,
// so one Mersenne fold leaves at most 2*(2^31-1) and one subtract finishes.
func mulmod(x, y uint64) uint64 {
	t := x * y
	t = t&int32max + t>>31
	if t >= int32max {
		t -= int32max
	}
	return t
}

// cooked is the stdlib's rngCooked additive table, recovered at init (see
// recoverCooked).
var cooked [rngLen]int64

// computeVec fills vec with the post-Seed state of rngSource for seed. Seed
// discards twenty scrambled values, then word i XORs x_{21+3i} << 40,
// x_{22+3i} << 20 and x_{23+3i} with cooked[i]; each is x0 times a power of
// the multiplier, so a word costs three independent multiply-mods instead
// of three links of a 1,841-step dependent chain.
func computeVec(seed int64, vec *[rngLen]int64) {
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	y := mulmod(uint64(seed), lehmerA21)
	for i := range vec {
		u := int64(y)<<40 ^ int64(mulmod(y, lehmerA))<<20 ^ int64(mulmod(y, lehmerA2))
		vec[i] = u ^ cooked[i]
		y = mulmod(y, lehmerA3)
	}
}

// recoverCooked reconstructs rngCooked from one observed output stream.
//
// After Seed, tap=0 and feed=334; the k-th Uint64 (k from 0) reads positions
// tap_k = (606-k) mod 607 and feed_k = (333-k) mod 607, writes feed_k, and
// returns their sum. A tap position is first overwritten 273 steps after it
// is read, so the first 607 outputs determine the whole initial vector:
//
//	k in [273,606]: out_k = init[feed_k] + out_{k-273}  (tap already rewritten)
//	k in [0,272]:   out_k = init[feed_k] + init[tap_k]  (tap still initial)
//
// Solving the first family recovers init at positions 0..60 and 334..606;
// substituting into the second recovers 61..333. Int64 addition wraps, and
// wrapping subtraction inverts it exactly. The cooked table then falls out
// of init via Seed's xor structure. Returns false if the stdlib source does
// not expose Uint64 (it always does today).
func recoverCooked() bool {
	src, ok := rand.NewSource(1).(rand.Source64)
	if !ok {
		return false
	}
	var out [rngLen]int64
	for i := range out {
		out[i] = int64(src.Uint64())
	}
	var init [rngLen]int64
	for k := 273; k <= 606; k++ {
		feed := 333 - k
		if feed < 0 {
			feed += rngLen
		}
		init[feed] = out[k] - out[k-273]
	}
	for k := 0; k <= 272; k++ {
		init[333-k] = out[k] - init[606-k]
	}
	// Seed(1)'s scrambling is computeVec(1) while cooked is still zero;
	// stripping it off init leaves the table.
	var scrambled [rngLen]int64
	computeVec(1, &scrambled)
	for i := range cooked {
		cooked[i] = init[i] ^ scrambled[i]
	}
	return true
}

// selfCheckSeeds are the seeds selfCheck proves the mirror on.
var selfCheckSeeds = [...]int64{1, 0, -1, 12345, 1<<62 + 7, -987654321}

// selfCheck verifies the mirror, its closed-form seeding included, against
// math/rand over several seeds and enough draws to cross the state-vector
// wraparound: the raw Uint64 stream, then the mirrored draw methods
// interleaved on one stream.
func selfCheck() bool {
	for _, seed := range selfCheckSeeds {
		real64, ok := rand.NewSource(seed).(rand.Source64)
		if !ok {
			return false
		}
		var m source
		m.Seed(seed)
		for i := 0; i < 2*rngLen; i++ {
			if m.Uint64() != real64.Uint64() {
				return false
			}
		}
		if !drawsMatch(seed) {
			return false
		}
	}
	return true
}

func init() {
	if !recoverCooked() || !selfCheck() {
		panic("xrand: the mirrored source does not reproduce this toolchain's math/rand; seeded streams would not match any pinned fingerprint")
	}
}

// Rand is a pooled generator. It embeds *rand.Rand, so every math/rand
// drawing method is available directly; Release returns it to the pool.
// Rand.Read must not be used (the wrapper's read state is not reset across
// pool reuse); the simulation streams never do.
type Rand struct {
	*rand.Rand
	src *source
}

var pool = sync.Pool{New: func() any { return newMirrored() }}

// newMirrored returns an unseeded generator on a fresh mirrored source.
func newMirrored() *Rand {
	s := &source{}
	return &Rand{Rand: rand.New(s), src: s}
}

// Get returns a generator seeded with seed, bit-identical to
// rand.New(rand.NewSource(seed)). Call Release when the stream is done.
func Get(seed int64) *Rand {
	r := pool.Get().(*Rand)
	r.src.Seed(seed)
	return r
}

// Release returns the generator to the pool. The Rand must not be used
// after Release.
func (r *Rand) Release() { pool.Put(r) }
