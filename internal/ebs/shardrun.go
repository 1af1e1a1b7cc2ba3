package ebs

import (
	"context"
	"fmt"
	"math"
	"sort"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/diting"
	"ebslab/internal/invariant"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// ShardPartial is the result of simulating one VD-disjoint shard [Lo, Hi) of
// the fleet: exactly what a fabric worker ships back to the coordinator.
// Metric rows are UNSCALED (event-thinning compensation is applied once, at
// the merge), records carry shard-local trace IDs (the merge reassigns the
// canonical 1..N numbering) and are NOT merged — they sit per disk, in the
// order the shard's tracers emitted them, packed (trace.Pack's layout) — and
// the sketch set — when streaming — is the shard's own partial state.
// Because shards own disjoint virtual disks, MergeShards over any covering
// set of partials reproduces the single-process dataset byte for byte.
//
// Ownership: a partial from RunShard aliases its run's pooled tracer chunks
// (Chunks) until Release, which hands tracers and batches back to their pools;
// everything else in it — rows, sketch, accounting — is the partial's own. A
// partial a decoder built aliases the frame it was decoded from, in Records:
// the frame must outlive it and never be written again (a fabric
// coordinator's ledger keeps each accepted frame as its partial's backing,
// and nothing writes to it).
type ShardPartial struct {
	Lo, Hi int
	// Records is the packed sampled records of a partial that holds them in
	// one slice (a decoded result frame's record section, aliased). RunShard
	// leaves it nil: read Chunks.
	Records []byte
	// Marks are where the records' sorted runs start, as positions in the
	// walk of Chunks (diting.FromParts' marks): noted by whoever wrote the
	// records — RunShard's tracers as they kept them, a decoder as it reads
	// them — so the merge never scans for them. They never cross the wire,
	// and a RunShard partial's go with its chunks at Release.
	Marks []int
	// Compute and Storage are each tracer's rows in key order, tracer after
	// tracer; keys never repeat across tracers (a key pins one VD).
	Compute []trace.MetricRow
	Storage []trace.MetricRow
	// Sketch is non-nil iff the run streams (Options.Stream was set).
	Sketch *sketch.Set
	// Chaos holds the shard's fault accounting (IO-level counters only; the
	// schedule-level window counts are coordinator-side).
	Chaos chaos.Stats
	// Emission is the per-VD workload-layer accounting for VDs [Lo, Hi),
	// present only in check mode.
	Emission []invariant.VDEmission
	// Audit holds the shard's throttle-audit findings, check mode only.
	Audit []string

	// run is the engine run that produced the partial and chunks its tracers'
	// record chunks, both until Release; a decoded partial has neither.
	run    *runState
	chunks [][]byte
}

// Chunks returns the partial's packed sampled records as the chunks they sit
// in, to be walked in order: per-disk runs, each disk's records contiguous
// and in generation order. For a RunShard partial these are the run's tracer
// chunks as they were emitted — read-only, and gone after Release; otherwise
// it is Records, as one chunk.
func (p *ShardPartial) Chunks() [][]byte {
	if p.run != nil {
		return p.chunks
	}
	return [][]byte{p.Records}
}

// Release returns the run's tracers and batches to their pools. Call it once
// nothing reads Chunks any more — a fabric worker does when the upload that
// wrote them onto the connection has returned; a caller that never does
// merely leaves them to the collector.
func (p *ShardPartial) Release() {
	if p.run != nil {
		p.run.release()
		p.run, p.chunks, p.Marks = nil, nil, nil
	}
}

// streamConfigFor derives the per-shard sketch configuration from the
// destination set, filling the thinning scale and the fleet throughput-cap
// sum (the RAR denominator) from the run's shape. nVDs is the run's global
// disk count: every shard derives the same configuration regardless of which
// slice of the fleet it executes, which is what keeps shard sketch state
// mergeable. Call only after opts.withDefaults.
func (s *Sim) streamConfigFor(opts Options, nVDs int) sketch.Config {
	cfg := opts.Stream.Config()
	cfg.Scale = float64(opts.EventSampleEvery)
	if cfg.DurationSec == 0 {
		cfg.DurationSec = opts.DurationSec
	}
	if cfg.TputCapSum == 0 {
		for i := 0; i < nVDs; i++ {
			cfg.TputCapSum += s.fleet.Topology.VDs[i].ThroughputCap
		}
	}
	return cfg
}

// ShardSketchConfig is the sketch configuration every shard partial of the
// run opts describes carries, and the one MergeShards merges into; nil when
// the run does not stream. It is streamConfigFor over the validated options,
// so a fabric ledger can refuse a partial built under any other
// configuration before anything merges it.
func (s *Sim) ShardSketchConfig(opts Options) (*sketch.Config, error) {
	r, err := s.begin(opts)
	if err != nil || r.opts.Stream == nil {
		return nil, err
	}
	return &r.streamCfg, nil
}

// runVDs bounds the run to the first MaxVDs disks. MaxVDs has no default to
// fill, so this is the same before and after opts.prepare.
func (s *Sim) runVDs(opts Options) int {
	nVDs := len(s.fleet.Topology.VDs)
	if opts.MaxVDs > 0 && opts.MaxVDs < nVDs {
		nVDs = opts.MaxVDs
	}
	return nVDs
}

// DiskCosts is the run's dry-run cost, one entry per disk of the run opts
// describes: the IO count the disk is predicted to emit — over the series,
// storm boost and scenario simulateVD would take from offeredBy, the
// generator's expected count Σ_t boost(t)·(ReadIOPS+WriteIOPS) divided by the
// event thinning, rounded — or, for a record-sourced replay, its in-window
// records. Only the demand series is drawn: no events, throttle, latency or
// tracer. The counts are integers from a fixed-order sum, so every process
// that costs the same spec gets the same slice (the fabric's shard plan
// depends on that). The options are validated as a run would validate them;
// nothing is written to their destinations.
func (s *Sim) DiskCosts(opts Options) ([]uint64, error) {
	r, err := s.begin(opts)
	if err != nil {
		return nil, err
	}
	if err := s.checkScenarioOptions(&r.opts); err != nil {
		return nil, err
	}
	costs := make([]uint64, r.nVDs)
	if rs, ok := r.opts.Scenario.(scenario.RecordSource); ok && rs.SourcesRecords() {
		limitUS := int64(r.opts.DurationSec) * 1_000_000
		for vd := range costs {
			for _, rec := range rs.Records(cluster.VDID(vd)) {
				if rec.TimeUS < limitUS {
					costs[vd]++
				}
			}
		}
		return costs, nil
	}
	var series []workload.Sample
	for vd := range costs {
		off := s.offeredBy(series, vd, &r.opts, r.sched)
		series = off.series
		costs[vd] = uint64(math.Round(off.meanIOs()))
	}
	return costs, nil
}

// assembleDataset builds the run's dataset from the fully merged tracer's
// export: the records, the scaled metric rows and the fleet's (shared,
// read-only) VD/VM spec tables.
func (s *Sim) assembleDataset(opts Options, records []trace.Record, compute, storage []trace.MetricRow) *trace.Dataset {
	vdSpecs, vmSpecs := s.specs()
	return &trace.Dataset{
		Topology:    s.fleet.Topology,
		Seg2BS:      s.fleet.Seg2BS,
		DurationSec: opts.DurationSec,
		Trace:       records,
		Compute:     compute,
		Storage:     storage,
		VDSpecs:     vdSpecs,
		VMSpecs:     vmSpecs,
	}
}

// RunShard simulates virtual disks [lo, hi) of the run described by opts and
// returns the shard's unmerged partial. The shard observes the run's GLOBAL
// shape — chaos schedules expand against the whole fleet, sketch
// configuration sums every disk's throughput cap — so partials from any
// VD-disjoint covering of [0, nVDs) merge into the exact single-process
// dataset. Within the shard, disks are dealt across opts.Workers just like
// Run, and nothing is merged here: the records ship as the tracers' chunks
// and the one merge is MergeShards'. That is exact because the final order is
// the stable (TimeUS, VD) order of the concatenation, equal keys belong to one
// disk, and a disk is simulated whole by one goroutine — any concatenation
// that keeps each disk's records in generation order merges to the same
// bytes. opts.Observe is left untouched: the observation is folded from the
// merged rows, by MergeShards.
func (s *Sim) RunShard(ctx context.Context, opts Options, lo, hi int) (*ShardPartial, error) {
	if opts.Control != nil {
		return nil, errSingleProcess
	}
	r, err := s.runRange(ctx, opts, lo, hi, nil)
	if err != nil {
		return nil, err
	}
	p := &ShardPartial{Lo: lo, Hi: hi, Chaos: r.chaos, Audit: r.audits, run: r}
	for _, tr := range r.tracers {
		p.chunks, p.Marks = tr.AppendChunks(p.chunks, p.Marks)
		p.Compute = append(p.Compute, tr.ComputeRows()...)
		p.Storage = append(p.Storage, tr.StorageRows()...)
	}
	if r.opts.Stream != nil {
		p.Sketch = mergeSets(r.streamCfg, r.sets)
	}
	if r.emission != nil {
		p.Emission = append(p.Emission, r.emission.PerVD[lo:hi]...)
	}
	return p, nil
}

// MergeShards deterministically combines shard partials into the run's final
// dataset. The partials must exactly cover [0, nVDs) without overlap — the
// at-most-once discipline upstream (fabric result accounting) guarantees
// this for distributed runs, and MergeShards re-verifies it. The partials
// are only read (a coordinator may be serving snapshots from the same ledger
// entries). The merged dataset, streamed sketch state, control-plane
// observation, chaos accounting, and check-mode verdict are byte-identical to
// a single-process Run with the same options.
func (s *Sim) MergeShards(opts Options, partials []*ShardPartial) (*trace.Dataset, error) {
	if opts.Control != nil {
		return nil, errSingleProcess
	}
	r, err := s.begin(opts)
	if err != nil {
		return nil, err
	}

	parts := append([]*ShardPartial(nil), partials...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Lo < parts[j].Lo })
	next := 0
	for _, p := range parts {
		if p.Lo != next {
			return nil, fmt.Errorf("ebs: shard coverage gap or overlap at VD %d (next shard starts at %d)", next, p.Lo)
		}
		next = p.Hi
	}
	if next != r.nVDs {
		return nil, fmt.Errorf("ebs: shards cover [0,%d), run needs [0,%d)", next, r.nVDs)
	}

	for _, p := range parts {
		// FromParts tracers alias the partial's chunks and rows; finish merges
		// them (which unpacks and copies) and they must never be pooled or
		// released.
		r.tracers = append(r.tracers, diting.FromParts(r.opts.TraceSampleEvery, p.Chunks(), p.Marks, p.Compute, p.Storage))
		if r.opts.Stream != nil {
			if p.Sketch == nil {
				return nil, fmt.Errorf("ebs: shard [%d,%d) has no sketch state in a streaming run", p.Lo, p.Hi)
			}
			if got := p.Sketch.Config(); got != r.streamCfg {
				return nil, fmt.Errorf("ebs: shard [%d,%d) streamed under sketch config %+v, the run's is %+v", p.Lo, p.Hi, got, r.streamCfg)
			}
			r.sets = append(r.sets, p.Sketch)
		}
		r.chaos.Merge(p.Chaos)
		r.audits = append(r.audits, p.Audit...)
		if r.emission != nil {
			if len(p.Emission) != p.Hi-p.Lo {
				return nil, fmt.Errorf("ebs: shard [%d,%d) carries %d emission slots in a checked run", p.Lo, p.Hi, len(p.Emission))
			}
			copy(r.emission.PerVD[p.Lo:p.Hi], p.Emission)
		}
	}
	return s.finish(r)
}
