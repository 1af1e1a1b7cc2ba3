package sketch

import (
	"math"

	"ebslab/internal/stats"
	"ebslab/internal/trace"
	"ebslab/internal/wire"
)

const (
	// quantileAlpha is the relative accuracy of the latency/size quantile
	// sketches: 1%.
	quantileAlpha = 0.01
	// ewmaHalfLifeSec is the half-life of the windowed EWMA rate meter.
	ewmaHalfLifeSec = 30.0
)

// Config parameterizes a sketch Set. The zero value of every field selects
// the documented default.
type Config struct {
	// TopK is the capacity of the global heavy-hitter rankings (default 32).
	TopK int
	// SegPerVD is the capacity of each virtual disk's LBA-segment
	// heavy-hitter summary (default 8). Global segment ranking error is
	// bounded by the per-VD stream weight divided by this.
	SegPerVD int
	// HLLPrecision is the register exponent p of the cardinality
	// estimators (default 12: 4096 registers, ~1.6% standard error).
	HLLPrecision int
	// Scale compensates event thinning: every byte/op count is multiplied
	// by Scale when rates are reported (default 1). The engine sets it to
	// its EventSampleEvery.
	Scale float64
	// TputCapSum is the summed throughput cap (bytes/s) of the simulated
	// disks, the denominator of the fleet RAR; 0 leaves RAR undefined. The
	// engine fills it from the topology when left zero.
	TputCapSum float64
	// DurationSec pre-sizes the per-second rate meter (it still grows).
	DurationSec int
}

// withDefaults fills zero-valued fields with the package defaults.
func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = 32
	}
	if c.SegPerVD <= 0 {
		c.SegPerVD = 8
	}
	if c.HLLPrecision < 4 || c.HLLPrecision > 16 {
		c.HLLPrecision = 12
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// dirCount is one entity's exact directional accounting.
type dirCount struct {
	readBytes  uint64
	writeBytes uint64
	readOps    uint64
	writeOps   uint64
}

func (d dirCount) bytes() uint64 { return d.readBytes + d.writeBytes }

// Set bundles the streaming summaries the engine keeps per shard: exact
// per-VD directional counters (the VD space is fleet-bounded, so CCR and
// CoV come out exact), per-VD SpaceSaving segment heavy hitters, a fleet
// rate meter, latency and size quantile sketches, and active-block /
// active-segment cardinality estimators. Memory is O(VDs x SegPerVD +
// DurationSec + 2^HLLPrecision + quantile buckets) — independent of how
// many IOs stream through.
//
// Merge is a component-wise monoid combine. In the engine every virtual
// disk is ingested whole by exactly one shard, so the per-VD maps of two
// shard sets are key-disjoint and Merge is exactly commutative; order-
// sensitive truncation happens only inside Skewness, which folds per-VD
// state in ascending VD order.
type Set struct {
	cfg    Config
	totals Totals
	vds    map[uint64]*dirCount
	segHot map[uint64]*SpaceSaving
	rate   *RateMeter
	lat    *LogQuantile
	sizes  *LogQuantile
	blocks *HLL
	segs   *HLL
}

// NewSet creates a sketch set with the given configuration.
func NewSet(cfg Config) *Set {
	cfg = cfg.withDefaults()
	return &Set{
		cfg:    cfg,
		vds:    make(map[uint64]*dirCount),
		segHot: make(map[uint64]*SpaceSaving),
		rate:   NewRateMeter(cfg.DurationSec),
		lat:    NewLogQuantile(quantileAlpha),
		sizes:  NewLogQuantile(quantileAlpha),
		blocks: NewHLL(cfg.HLLPrecision),
		segs:   NewHLL(cfg.HLLPrecision),
	}
}

// Config returns the set's normalized configuration.
func (s *Set) Config() Config { return s.cfg }

// Totals returns the exact ingest accounting.
func (s *Set) Totals() Totals { return s.totals }

// blockKey derives a distinct-block key from a VD and a 4 KiB-aligned
// offset; the multiply spreads VD identity across the word before HLL's
// splitmix64 finishes the mixing.
func blockKey(vd uint64, offset int64) uint64 {
	return (vd+1)*0x9e3779b97f4a7c15 ^ uint64(offset>>12)
}

// sizeBuckets[k-1] is the size sketch's bucket of a k·4 KiB IO, for every
// size the generator draws (4 KiB-aligned, 4 KiB to 4 MiB): the same
// formula Add evaluates, computed once so ingest skips a math.Log per IO.
var sizeBuckets = func() (t [1024]int64) {
	l := NewLogQuantile(quantileAlpha)
	for k := range t {
		t[k] = l.bucket(math.Log(float64((k + 1) << 12)))
	}
	return t
}()

// vdCount returns (creating on first touch) the exact directional counter
// of one virtual disk.
func (s *Set) vdCount(vd uint64) *dirCount {
	dc := s.vds[vd]
	if dc == nil {
		dc = &dirCount{}
		s.vds[vd] = dc
	}
	return dc
}

// vdSegHot returns (creating on first touch) the segment heavy-hitter
// summary of one virtual disk.
func (s *Set) vdSegHot(vd uint64) *SpaceSaving {
	ss := s.segHot[vd]
	if ss == nil {
		ss = NewSpaceSaving(s.cfg.SegPerVD)
		s.segHot[vd] = ss
	}
	return ss
}

// Observe ingests one completed IO: the record-at-a-time wrapper over the
// same ingest the batched ObserveBatch path performs. The record's latency
// must be final (queue delay and fault penalties applied), since the
// latency sketch sees it here.
func (s *Set) Observe(rec *trace.Record) {
	vd := uint64(rec.VD)
	lat := rec.TotalLatency()
	s.ingest(s.vdCount(vd), s.vdSegHot(vd), vd, rec.Op == trace.OpRead,
		rec.Size, rec.TimeUS, rec.Offset, uint64(rec.Segment), lat, math.Log(lat))
}

// ingest folds one IO into every summary; dc and ss are the per-VD states
// of vd (hoisted by ObserveBatch across same-VD runs), and logLat is
// math.Log(totalLat) (taken by ObserveBatch a chunk at a time).
func (s *Set) ingest(dc *dirCount, ss *SpaceSaving, vd uint64, read bool, size32 int32, timeUS, offset int64, seg uint64, totalLat, logLat float64) {
	size := uint64(size32)
	s.totals.IOs++
	s.totals.Bytes += size
	if read {
		dc.readBytes += size
		dc.readOps++
	} else {
		dc.writeBytes += size
		dc.writeOps++
	}
	ss.Add(seg, size)
	s.rate.Add(int(timeUS/1_000_000), read, size)
	s.lat.addLogged(totalLat, logLat, 1)
	if k := size32 >> 12; size32&(1<<12-1) == 0 && k >= 1 && k <= int32(len(sizeBuckets)) {
		s.sizes.addBucket(sizeBuckets[k-1], 1)
	} else {
		s.sizes.Add(float64(size32), 1)
	}
	s.blocks.Add(blockKey(vd, offset))
	s.segs.Add(seg)
}

// Merge folds o (built with the same Config) into s. o is only read: its
// per-VD state is copied, never shared, so afterwards neither set can change
// through the other — o may keep ingesting, be merged into other sets, and
// be read by several mergers at once.
func (s *Set) Merge(o *Set) {
	s.totals.Add(o.totals)
	for vd, odc := range o.vds {
		dc := s.vdCount(vd)
		dc.readBytes += odc.readBytes
		dc.writeBytes += odc.writeBytes
		dc.readOps += odc.readOps
		dc.writeOps += odc.writeOps
	}
	for vd, oss := range o.segHot {
		s.vdSegHot(vd).Merge(oss)
	}
	s.rate.Merge(o.rate)
	s.lat.Merge(o.lat)
	s.sizes.Merge(o.sizes)
	s.blocks.Merge(o.blocks)
	s.segs.Merge(o.segs)
}

// Fingerprint returns a collision-resistant digest of the set's entire
// state in canonical order; the worker-count determinism oracle compares
// these across replays.
func (s *Set) Fingerprint() string {
	d := new(wire.Digest)
	d.F64(quantileAlpha)
	d.U64(uint64(s.cfg.TopK))
	d.U64(uint64(s.cfg.SegPerVD))
	d.U64(s.totals.IOs)
	d.U64(s.totals.Bytes)
	d.U64(uint64(len(s.vds)))
	for _, vd := range sortedKeys(s.vds) {
		dc := s.vds[vd]
		d.U64(vd)
		d.U64(dc.readBytes)
		d.U64(dc.writeBytes)
		d.U64(dc.readOps)
		d.U64(dc.writeOps)
	}
	d.U64(uint64(len(s.segHot)))
	for _, vd := range sortedKeys(s.segHot) {
		d.U64(vd)
		s.segHot[vd].AppendHash(d)
	}
	s.rate.AppendHash(d)
	s.lat.AppendHash(d)
	s.sizes.AppendHash(d)
	s.blocks.AppendHash(d)
	s.segs.AppendHash(d)
	return d.Sum()
}

// Skewness is the streaming form of the study's skewness metric surface:
// everything the batch pipeline derives from materialized trace rows,
// computed from sketch state alone.
type Skewness struct {
	IOs   uint64
	Bytes float64 // scaled by Config.Scale

	// Spatial skew across virtual disks (total traffic).
	CCR1, CCR10 float64 // top-1% / top-10% cumulative contribution rate
	NormCoV     float64 // normalized CoV across per-VD totals

	// Temporal skew of the fleet second series.
	P2ARead, P2AWrite, P2ATotal float64
	EWMABps                     float64 // windowed EWMA of total Bps after the last second
	MeanRAR                     float64 // fleet Resource Available Rate (Eq. 1)

	// Directional skew.
	WrRatio float64 // (W-R)/(W+R) over bytes

	// Distributions.
	LatencyP50, LatencyP99 float64 // end-to-end microseconds
	SizeP50, SizeP99       float64 // bytes

	// Cardinality (estimates).
	ActiveBlocks, ActiveSegments float64

	// Rankings (counts scaled by Config.Scale).
	HotVDs      []Entry // key = VD id
	HotSegments []Entry // key = segment id
}

// Skewness finalizes the set into its metric surface. Per-VD state is
// folded in ascending VD order, so the result is a deterministic function
// of the merged sketch state.
func (s *Set) Skewness() Skewness {
	sc := s.cfg.Scale
	out := Skewness{
		IOs:            uint64(math.Round(float64(s.totals.IOs) * sc)),
		Bytes:          float64(s.totals.Bytes) * sc,
		P2ARead:        s.rate.P2A(true, false),
		P2AWrite:       s.rate.P2A(false, true),
		P2ATotal:       s.rate.P2A(true, true),
		EWMABps:        s.rate.EWMA(ewmaHalfLifeSec, sc),
		MeanRAR:        s.rate.MeanRAR(s.cfg.TputCapSum, sc),
		LatencyP50:     s.lat.Quantile(0.5),
		LatencyP99:     s.lat.Quantile(0.99),
		SizeP50:        s.sizes.Quantile(0.5),
		SizeP99:        s.sizes.Quantile(0.99),
		ActiveBlocks:   s.blocks.Estimate(),
		ActiveSegments: s.segs.Estimate(),
	}

	vdKeys := sortedKeys(s.vds)
	perVD := make([]float64, 0, len(vdKeys))
	var readBytes, writeBytes uint64
	hotVDs := NewSpaceSaving(s.cfg.TopK)
	for _, vd := range vdKeys {
		dc := s.vds[vd]
		perVD = append(perVD, float64(dc.bytes())*sc)
		readBytes += dc.readBytes
		writeBytes += dc.writeBytes
		hotVDs.Add(vd, dc.bytes())
	}
	out.CCR1 = stats.CCR(perVD, 0.01)
	out.CCR10 = stats.CCR(perVD, 0.10)
	out.NormCoV = stats.NormCoV(perVD)
	out.WrRatio = stats.WrRatio(float64(writeBytes), float64(readBytes))
	out.HotVDs = scaleEntries(hotVDs.Top(s.cfg.TopK), sc)

	hotSegs := NewSpaceSaving(s.cfg.TopK)
	for _, vd := range sortedKeys(s.segHot) {
		hotSegs.Merge(s.segHot[vd])
	}
	out.HotSegments = scaleEntries(hotSegs.Top(s.cfg.TopK), sc)
	return out
}

// scaleEntries multiplies entry counts/errors by the thinning scale,
// rounding to the nearest integer unit.
func scaleEntries(es []Entry, scale float64) []Entry {
	if scale == 1 {
		return es
	}
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = Entry{
			Key:   e.Key,
			Count: uint64(math.Round(float64(e.Count) * scale)),
			Err:   uint64(math.Round(float64(e.Err) * scale)),
		}
	}
	return out
}

// Overlap returns |exact ∩ got| / |exact| over the entry key sets — the
// top-K agreement score the accuracy gates assert on. It returns NaN when
// exact is empty.
func Overlap(exact, got []Entry) float64 {
	if len(exact) == 0 {
		return math.NaN()
	}
	keys := make(map[uint64]bool, len(got))
	for _, e := range got {
		keys[e.Key] = true
	}
	hit := 0
	for _, e := range exact {
		if keys[e.Key] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}
