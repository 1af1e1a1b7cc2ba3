package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// The host-speed reference. The sizing host runs in spells, minutes to an
// hour long, in which unchanged code takes 15-35% more wall AND CPU time;
// two sets of runs of one build, forty minutes apart, differed by up to 41%
// in their medians. No statistic inside a twelve-second run sees past a
// spell that outlasts it. What does is a yardstick measured in the same
// run: a small frozen kernel with the simulator's blend of work —
// pseudo-random draws through log/exp, sequential writes of record-sized
// structs, random-access accumulation into a map, a stable index sort — on
// as many goroutines as the engine has workers. It calls nothing in the
// repository, so no change to the program can move it; only the host can.
// Every timing the run reports is multiplied by refNominalMS ÷ the kernel's
// time in this run, i.e. expressed in milliseconds of the reference host at
// its quiet speed. Measured over 62 minutes straddling a spell (60 s
// windows): raw sim-traced shifted +31% and sim-sampled +20% between quiet
// and noisy, normalised 0% and -5%; dist and replay, whose serial phases the
// spell hurts less than the kernel, +15% raw and -9% to -11% normalised.

// refNominalMS is the kernel's time on the sizing host in a quiet spell.
const refNominalMS = 24.2

const (
	refRecords = 60_000
	refKeys    = 4096
)

type refRecord struct {
	key  uint64
	t    int64
	lat  [6]float32
	size int32
	_    [36]byte // pads the record to trace.Record's 88 bytes
}

type refScratch struct {
	recs []refRecord
	idx  []int32
	acc  map[uint64]*[2]float64
}

// run is one worker's share of the kernel; the returned value keeps the
// compiler from discarding the work.
func (s *refScratch) run(seed uint64) float64 {
	rng := splitmix(seed)
	clear(s.acc)
	var sum float64
	for i := range s.recs {
		z := rng.next()
		u := (float64(z>>11) + 0.5) / (1 << 53)
		r := &s.recs[i]
		r.key = z % refKeys
		r.t = int64(z >> 20)
		r.size = int32(4096 << (z >> 60))
		base := -math.Log(u)
		for st := range r.lat {
			r.lat[st] = float32(math.Exp(0.3*base) * float64(st+1))
		}
		a := s.acc[r.key]
		if a == nil {
			a = new([2]float64)
			s.acc[r.key] = a
		}
		a[0] += float64(r.size)
		a[1]++
		s.idx[i] = int32(i)
		sum += base
	}
	slices.SortStableFunc(s.idx, func(a, b int32) int {
		ra, rb := &s.recs[a], &s.recs[b]
		if ra.t != rb.t {
			if ra.t < rb.t {
				return -1
			}
			return 1
		}
		return int(ra.key) - int(rb.key)
	})
	return sum + float64(s.idx[0])
}

// hostProbe samples the kernel through a run.
type hostProbe struct {
	scratch []*refScratch
	ms      []float64
	sink    float64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{}
	for w := 0; w < engineWorkers(); w++ {
		p.scratch = append(p.scratch, &refScratch{
			recs: make([]refRecord, refRecords),
			idx:  make([]int32, refRecords),
			acc:  make(map[uint64]*[2]float64, refKeys),
		})
	}
	return p
}

// sample runs the kernel once on every engine worker and records how long
// the slowest took.
func (p *hostProbe) sample() {
	var wg sync.WaitGroup
	out := make([]float64, len(p.scratch))
	t0 := time.Now()
	for w, s := range p.scratch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = s.run(uint64(w) + 1)
		}()
	}
	wg.Wait()
	p.ms = append(p.ms, ms(time.Since(t0)))
	for _, v := range out {
		p.sink += v
	}
}

// speed is the host's speed in this run relative to the reference host at
// its quiet speed (1: the same; 0.8: a fifth slower), read like everything
// else from the quiet quarter of the samples.
func (p *hostProbe) speed() float64 {
	s := append([]float64(nil), p.ms...)
	sort.Float64s(s)
	s = s[:(len(s)+quietShare-1)/quietShare]
	return refNominalMS / (sum(s) / float64(len(s)))
}

// release drops the kernel's buffers, so they are not counted as live heap.
func (p *hostProbe) release() { p.scratch = nil }
