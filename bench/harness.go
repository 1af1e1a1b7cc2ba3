package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"ebslab/internal/invariant"
	"ebslab/internal/trace"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// Short is the test scale: a tenth of the repetitions, one set-up. Same
	// study, same fingerprints.
	Short bool
	// SpanDir is where a traced run writes <workload>.spans.json.
	SpanDir string
	Log     io.Writer
}

func (c runConfig) setups() int {
	if c.Short || c.Trace {
		// A traced run reports no setup_s, so it sets up once.
		return 1
	}
	return numSetups
}

// reps scales a workload's repetition count to this run.
func (c runConfig) reps(w workloadDef) int {
	n := int(math.Round(float64(w.Reps) * float64(c.Seconds) / nominalSeconds))
	if c.Short {
		n /= 10
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (c runConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// report is what one run prints.
type report struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

// set records one metric; a name may be set once.
func (r *report) set(name string, v float64) {
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	r.Metrics[name] = v
}

// outcome is what one study hands back to its caller.
type outcome struct {
	ds *trace.Dataset
	// extra is the fingerprint of whatever the study returns besides the
	// dataset (sketch state, control decision log); "" when nothing.
	extra string
	keep  any // the rest of the result the caller would still hold
}

// fingerprint is the study's full identity: the dataset's SHA-256 plus the
// side result's own fingerprint.
func (o *outcome) fingerprint() string {
	fp := invariant.Fingerprint(o.ds)
	if o.extra != "" {
		fp += "+" + o.extra
	}
	return fp
}

// quickSum is a 64-bit order-sensitive checksum over every record and
// metric row of the outcome. It costs ~2 ms where the SHA-256 fingerprint
// costs ~70 ms, so every timed study is checked with it and only every
// fullCheckEvery-th pays for the full fingerprint.
func (o *outcome) quickSum() uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) { h = (h ^ v) * prime }
	for i := range o.ds.Trace {
		r := &o.ds.Trace[i]
		mix(uint64(r.TimeUS))
		mix(uint64(r.Offset))
		mix(uint64(r.Size)<<1 | uint64(r.Op))
		mix(uint64(r.VD)<<40 | uint64(r.Segment)<<16 | uint64(r.Storage)<<8 | uint64(uint8(r.WT)))
		for _, l := range r.Latency {
			mix(uint64(math.Float32bits(l)))
		}
	}
	for _, rows := range [][]trace.MetricRow{o.ds.Compute, o.ds.Storage} {
		for i := range rows {
			m := &rows[i]
			mix(uint64(m.Sec)<<32 | uint64(uint32(m.QP)) ^ uint64(m.Segment)<<8)
			mix(math.Float64bits(m.ReadBps))
			mix(math.Float64bits(m.WriteBps))
			mix(math.Float64bits(m.ReadIOPS))
			mix(math.Float64bits(m.WriteIOPS))
		}
	}
	for i := 0; i < len(o.extra); i++ {
		mix(uint64(o.extra[i]))
	}
	return h
}

// reference is what every timed study's result must equal.
type reference struct {
	fp    string
	quick uint64
	ios   int64
}

// unit is one timed unit of identical work: a study (batch workloads) or a
// pass over the submission mix (gateway).
type unit struct {
	wallNS  int64 // the study's wall time, or the pass's elapsed time
	cpuNS   int64 // process CPU over the same interval
	ios     int64 // simulated IOs completed
	studies int
}

func (u unit) nsPerIO() float64 { return float64(u.wallNS) / float64(u.ios) }

// phase is one untraced timed phase.
type phase struct {
	units []unit
	// studyMS are the study times study_p50_ms is the median of: the quiet
	// quarter's (batch), or every submission's fastest over the passes
	// (gateway).
	studyMS   []float64
	attempted int
	failed    int
	mem       memCounters // allocator/collector activity inside the studies
	heapMiB   float64     // live heap afterwards, result still referenced
	// hostSpeed is this run's host speed relative to the reference host
	// (see hostref.go): measured times are multiplied by it, rates divided.
	hostSpeed float64
}

// quietShare: the run reports on the fastest 1/quietShare of its units.
const quietShare = 4

// quiet returns the fastest quarter of the units (by time per IO), fastest
// first, and the slower rest. Neighbours on a shared host and the
// collector's luck only ever add time, and they come and go within a run:
// measured on the sizing host during a noisy spell, the median of 140
// identical studies spread 18% over eight runs and sat 11% above its
// quiet-spell value, while the fastest quarter spread 4% and sat 3% above.
// The quarter is the part of the run that saw the program and the least of
// anything else; the rest is dropped, not averaged in.
func (p *phase) quiet() (fast, rest []unit) {
	sorted := append([]unit(nil), p.units...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].nsPerIO() < sorted[j].nsPerIO() })
	n := (len(sorted) + quietShare - 1) / quietShare
	return sorted[:n], sorted[n:]
}

func totals(us []unit) (t unit) {
	for _, u := range us {
		t.wallNS += u.wallNS
		t.cpuNS += u.cpuNS
		t.ios += u.ios
		t.studies += u.studies
	}
	return t
}

// quietSpread is the rest's time per IO ÷ the quiet quarter's: the run's
// own reading of how noisy it was (1 when there is a single unit).
func (p *phase) quietSpread() float64 {
	fast, rest := p.quiet()
	if len(rest) == 0 {
		return 1
	}
	return totals(rest).nsPerIO() / totals(fast).nsPerIO()
}

// endToEndMetrics fills the untraced run's metrics from the quiet quarter,
// every timing expressed at the reference host's speed.
func (p *phase) endToEndMetrics(rep *report, setupS float64) {
	fast, _ := p.quiet()
	q := totals(fast)
	rep.set("setup_s", setupS*p.hostSpeed)
	rep.set("study_p50_ms", median(p.studyMS)*p.hostSpeed)
	rep.set("ios_per_s", 1e9/q.nsPerIO()/p.hostSpeed)
	rep.set("cpu_ms_per_study", float64(q.cpuNS)/1e6/float64(q.studies)*p.hostSpeed)
	rep.set("live_heap_mb", p.heapMiB)
}

// processMetrics fills the traced run's process.* and run.* metrics that
// come from its untraced phase.
func (p *phase) processMetrics(rep *report) {
	n := float64(p.attempted)
	rep.set("process.peak_rss_mb", peakRSSMiB())
	rep.set("process.allocs_per_study", float64(p.mem.mallocs)/n)
	rep.set("process.alloc_mb_per_study", float64(p.mem.bytes)/mib/n)
	rep.set("process.gc_cycles", float64(p.mem.cycles))
	rep.set("process.gc_pause_ms", float64(p.mem.pauseNS)/1e6)
	rep.set("run.quiet_spread", p.quietSpread())
	rep.set("run.host_speed", p.hostSpeed)
	rep.set("run.failed_share", float64(p.failed)/n)
}

// verify compares one study's outcome with the reference. full additionally
// pays for the SHA-256 fingerprint.
func verify(out *outcome, err error, ref reference, full bool) error {
	if err != nil {
		return err
	}
	if got := out.quickSum(); got != ref.quick {
		return fmt.Errorf("checksum %016x, reference %016x", got, ref.quick)
	}
	if full {
		if got := out.fingerprint(); got != ref.fp {
			return fmt.Errorf("fingerprint %s, reference %s", got, ref.fp)
		}
	}
	return nil
}

// setUp performs one complete set-up of a batch workload: build the inputs
// from the seed, run the study once single-process under Check and compare
// its fingerprint with the pinned one, then warm up.
func setUp(cfg runConfig, w workloadDef) (*prepared, reference, error) {
	p, err := w.prepare(cfg.Seed)
	if err != nil {
		return nil, reference{}, fmt.Errorf("prepare: %w", err)
	}
	chk, err := p.check()
	if err != nil {
		return nil, reference{}, fmt.Errorf("check run: %w", err)
	}
	ref := reference{fp: chk.fingerprint(), quick: chk.quickSum(), ios: p.ios(chk)}
	if want, pinned := pinnedFingerprint(w.Name, cfg.Seed); pinned && want != ref.fp {
		return nil, reference{}, fmt.Errorf("check run fingerprint %s differs from the pinned %s: a simulated statistic changed", ref.fp, want)
	}
	for i := 0; i < warmReps; i++ {
		out, err := p.run(nil, 0)
		if err := verify(out, err, ref, i == 0); err != nil {
			return nil, reference{}, fmt.Errorf("warm-up study %d: %w", i, err)
		}
	}
	return p, ref, nil
}

// setUpMedian repeats the set-up and keeps the last one for the timed
// phase. The median of the repetitions is setup_s: a single 0.5-1.5 s
// set-up differed 15% between two runs of the same code.
func setUpMedian(cfg runConfig, w workloadDef, probe *hostProbe) (*prepared, reference, float64, error) {
	var (
		p     *prepared
		ref   reference
		times []float64
	)
	for i := 0; i < cfg.setups(); i++ {
		p = nil // the previous set-up's inputs are garbage before the next is timed
		runtime.GC()
		t0 := time.Now()
		var err error
		p, ref, err = setUp(cfg, w)
		if err != nil {
			return nil, reference{}, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		probe.sample()
	}
	cfg.logf("set-up x%d: %.3f s median (%v)", len(times), median(times), times)
	return p, ref, median(times), nil
}

// probeSamples is about how many host-speed samples a timed phase takes.
const probeSamples = 24

// probeEvery is how many units of a phase of n lie between two samples.
func probeEvery(n int) int {
	if n <= probeSamples {
		return 1
	}
	return n / probeSamples
}

// fullCheckEvery is how often a timed study pays for the full SHA-256
// fingerprint on top of the checksum every study gets.
const fullCheckEvery = 16

// timedPhase runs the untraced studies of a batch workload. Between studies
// the previous result is dropped and the heap collected, outside the clock:
// a CLI study starts on an empty heap.
func timedPhase(cfg runConfig, w workloadDef, p *prepared, ref reference, probe *hostProbe) *phase {
	ph := &phase{}
	var last *outcome
	reps := cfg.reps(w)
	for i := 0; i < reps; i++ {
		if i%probeEvery(reps) == 0 {
			probe.sample()
		}
		last = nil
		runtime.GC()
		m0 := readMem()
		c0, t0 := cpuNS(), time.Now()
		out, err := p.run(nil, 0)
		wall, cpu := time.Since(t0), cpuNS()-c0
		ph.mem.add(readMem().since(m0))
		ph.attempted++
		if err := verify(out, err, ref, i%fullCheckEvery == 0); err != nil {
			ph.failed++
			cfg.logf("study %d FAILED: %v", i, err)
		}
		last = out
		ph.units = append(ph.units, unit{wallNS: wall.Nanoseconds(), cpuNS: cpu, ios: ref.ios, studies: 1})
	}
	fast, _ := ph.quiet()
	for _, u := range fast {
		ph.studyMS = append(ph.studyMS, float64(u.wallNS)/1e6)
	}
	probe.sample()
	ph.hostSpeed = probe.speed()
	probe.release()
	cfg.logf("%d studies as measured: quiet quarter p50 %.2f ms, %.0f ios/s, the rest %.2fx; host speed %.3f of the reference", len(ph.units), median(ph.studyMS), 1e9/totals(fast).nsPerIO(), ph.quietSpread(), ph.hostSpeed)
	ph.heapMiB = liveHeapMiB()
	runtime.KeepAlive(last)
	return ph
}
