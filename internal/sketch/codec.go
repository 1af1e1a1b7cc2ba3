package sketch

import (
	"errors"
	"fmt"

	"ebslab/internal/wire"
)

// Binary wire codec for Set. The distributed simulation fabric ships each
// shard's sketch state from worker to coordinator as one of these frames;
// the contract (pinned by tests and the FuzzSetCodec target) is that
// decode(encode(s)) reproduces s's Fingerprint exactly, so merging decoded
// shard sets yields the same merged fingerprint as merging the originals.
//
// The format is versioned, little-endian, and canonical: map sections are
// written in ascending key order and the decoder rejects out-of-order or
// duplicate keys, so a Set has exactly one encoding. The decoder sizes
// every allocation by a wire.Reader.Count result, so a hostile length
// prefix cannot commit memory the stream does not back.
//
// The header states each Config field once, and every summary is rebuilt
// from it the way NewSet builds it: the segment summaries' capacity is
// SegPerVD, the cardinality estimators' register count 2^HLLPrecision, and
// the quantile sketches' accuracy the package constant. No section repeats
// a parameter, so a frame cannot describe a set whose parts disagree — every
// decoded set merges with NewSet(its Config()).
//
//	magic | topK u32 | segPerVD u32 | hllPrecision u32 | scale f64
//	      | tputCapSum f64 | durationSec u32 | ios u64 | bytes u64
//	      | per-VD counters | per-VD segment summaries | rate meter
//	      | latency and size quantiles | block and segment HLL registers

// codecMagic opens every frame: "SKS" plus a format version byte.
const codecMagic = uint32('S')<<24 | uint32('K')<<16 | uint32('S')<<8 | 2

// Codec limits: caps on decoded structure sizes, far above anything the
// engine produces but small enough that a hostile frame cannot balloon
// memory. maxCodecSecs bounds the rate meter (≈ 12 days of seconds).
const (
	maxCodecK    = 1 << 20
	maxCodecSecs = 1 << 20
)

// ErrCodec reports a malformed Set frame.
var ErrCodec = errors.New("sketch: malformed Set encoding")

// EncodeBinary serializes the set's entire state in canonical order.
func (s *Set) EncodeBinary() []byte {
	w := &wire.Writer{B: make([]byte, 0, 1024)}
	w.U32(codecMagic)

	w.U32(uint32(s.cfg.TopK))
	w.U32(uint32(s.cfg.SegPerVD))
	w.U32(uint32(s.cfg.HLLPrecision))
	w.F64(s.cfg.Scale)
	w.F64(s.cfg.TputCapSum)
	w.U32(uint32(s.cfg.DurationSec))

	w.U64(s.totals.IOs)
	w.U64(s.totals.Bytes)

	w.U32(uint32(len(s.vds)))
	for _, vd := range sortedKeys(s.vds) {
		dc := s.vds[vd]
		w.U64(vd)
		w.U64(dc.readBytes)
		w.U64(dc.writeBytes)
		w.U64(dc.readOps)
		w.U64(dc.writeOps)
	}

	w.U32(uint32(len(s.segHot)))
	for _, vd := range sortedKeys(s.segHot) {
		w.U64(vd)
		s.segHot[vd].appendBinary(w)
	}

	s.rate.appendBinary(w)
	s.lat.appendBinary(w)
	s.sizes.appendBinary(w)
	s.blocks.appendBinary(w)
	s.segs.appendBinary(w)
	return w.B
}

// DecodeSet parses a frame produced by EncodeBinary. It rejects truncated,
// oversized, non-canonical, and internally inconsistent frames with
// ErrCodec; a successful decode reproduces the source set's Fingerprint.
func DecodeSet(data []byte) (*Set, error) {
	r := wire.NewReader(data, ErrCodec)
	if m := r.U32(); r.Err() == nil && m != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %08x", ErrCodec, m)
	}

	var cfg Config
	cfg.TopK = int(r.U32())
	cfg.SegPerVD = int(r.U32())
	cfg.HLLPrecision = int(r.U32())
	cfg.Scale = r.F64()
	cfg.TputCapSum = r.F64()
	cfg.DurationSec = int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Encoded configs come from NewSet, so they are already normalized; a
	// config that withDefaults would rewrite is junk, as is one beyond the
	// codec's structural caps.
	if cfg != cfg.withDefaults() || cfg.TopK > maxCodecK || cfg.SegPerVD > maxCodecK ||
		cfg.DurationSec < 0 || cfg.DurationSec > maxCodecSecs {
		return nil, fmt.Errorf("%w: non-canonical config %+v", ErrCodec, cfg)
	}

	s := &Set{cfg: cfg}
	s.totals.IOs = r.U64()
	s.totals.Bytes = r.U64()

	nVDs := r.Count(5 * 8)
	s.vds = make(map[uint64]*dirCount, nVDs)
	lastKey, first := uint64(0), true
	for i := 0; i < nVDs && r.Err() == nil; i++ {
		vd := r.U64()
		if !first && vd <= lastKey {
			r.Fail("vds keys not strictly ascending at %d", vd)
			break
		}
		lastKey, first = vd, false
		s.vds[vd] = &dirCount{
			readBytes:  r.U64(),
			writeBytes: r.U64(),
			readOps:    r.U64(),
			writeOps:   r.U64(),
		}
	}

	nHot := r.Count(8)
	s.segHot = make(map[uint64]*SpaceSaving, nHot)
	lastKey, first = 0, true
	for i := 0; i < nHot && r.Err() == nil; i++ {
		vd := r.U64()
		if !first && vd <= lastKey {
			r.Fail("segHot keys not strictly ascending at %d", vd)
			break
		}
		lastKey, first = vd, false
		s.segHot[vd] = decodeSpaceSaving(r, cfg.SegPerVD)
	}

	s.rate = decodeRateMeter(r, cfg.DurationSec)
	s.lat = decodeLogQuantile(r)
	s.sizes = decodeLogQuantile(r)
	s.blocks = decodeHLL(r, cfg.HLLPrecision)
	s.segs = decodeHLL(r, cfg.HLLPrecision)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *SpaceSaving) appendBinary(w *wire.Writer) {
	w.U32(uint32(len(s.counters)))
	for _, c := range s.counters {
		w.U64(c.Key)
		w.U64(c.Count)
		w.U64(c.Err)
	}
}

// decodeSpaceSaving reads a summary of capacity k, the header's SegPerVD.
func decodeSpaceSaving(r *wire.Reader, k int) *SpaceSaving {
	n := r.Count(3 * 8)
	if r.Err() == nil && n > k {
		r.Fail("SpaceSaving holds %d counters over capacity %d", n, k)
	}
	if r.Err() != nil {
		return nil
	}
	s := &SpaceSaving{k: k, counters: make([]Entry, 0, n)}
	lastKey, first := uint64(0), true
	for i := 0; i < n && r.Err() == nil; i++ {
		key := r.U64()
		if !first && key <= lastKey {
			r.Fail("SpaceSaving keys not strictly ascending at %d", key)
			break
		}
		lastKey, first = key, false
		c := Entry{Key: key, Count: r.U64(), Err: r.U64()}
		if c.Err > c.Count {
			r.Fail("SpaceSaving counter %d has err %d > count %d", key, c.Err, c.Count)
			break
		}
		s.counters = append(s.counters, c)
	}
	return s
}

func (r *RateMeter) appendBinary(w *wire.Writer) {
	w.U32(uint32(len(r.secs)))
	for _, b := range r.secs {
		w.U64(b.ReadBytes)
		w.U64(b.WriteBytes)
		w.U64(b.ReadOps)
		w.U64(b.WriteOps)
	}
}

// decodeRateMeter reads a meter that, like every meter NewRateMeter(durSec)
// grew, spans at least durSec seconds.
func decodeRateMeter(r *wire.Reader, durSec int) *RateMeter {
	n := r.Count(4 * 8)
	if r.Err() == nil && (n < durSec || n > maxCodecSecs) {
		r.Fail("RateMeter spans %d seconds, want [%d, %d]", n, durSec, maxCodecSecs)
	}
	if r.Err() != nil {
		return nil
	}
	m := &RateMeter{secs: make([]RateBucket, n)}
	for i := 0; i < n && r.Err() == nil; i++ {
		m.secs[i] = RateBucket{
			ReadBytes:  r.U64(),
			WriteBytes: r.U64(),
			ReadOps:    r.U64(),
			WriteOps:   r.U64(),
		}
	}
	return m
}

func (l *LogQuantile) appendBinary(w *wire.Writer) {
	w.U64(l.zero)
	w.U64(l.total)
	w.U32(uint32(l.buckets()))
	l.each(func(idx int64, wgt uint64) bool {
		w.U64(uint64(idx))
		w.U64(wgt)
		return true
	})
}

// decodeLogQuantile reads a summary at the package's quantile accuracy.
func decodeLogQuantile(r *wire.Reader) *LogQuantile {
	zero := r.U64()
	total := r.U64()
	n := r.Count(2 * 8)
	if r.Err() != nil {
		return nil
	}
	l := NewLogQuantile(quantileAlpha)
	l.zero = zero
	var sum uint64 = zero
	lastIdx, first := int64(0), true
	for i := 0; i < n && r.Err() == nil; i++ {
		idx := int64(r.U64())
		if !first && idx <= lastIdx {
			r.Fail("LogQuantile buckets not strictly ascending at %d", idx)
			break
		}
		lastIdx, first = idx, false
		wgt := r.U64()
		if wgt == 0 {
			r.Fail("LogQuantile empty bucket %d", idx)
			break
		}
		// Ascending indices append pages in order: one page per distinct
		// page key, however far apart the buckets are.
		l.addBucket(idx, wgt)
		sum += wgt
	}
	if r.Err() == nil && sum != total {
		r.Fail("LogQuantile total %d != bucket sum %d", total, sum)
	}
	l.total = total
	return l
}

func (h *HLL) appendBinary(w *wire.Writer) { w.Bytes(h.registers) }

// decodeHLL reads the 2^p registers of an estimator of precision p, the
// header's HLLPrecision (already held to [4, 16]).
func decodeHLL(r *wire.Reader, p int) *HLL {
	regs := r.Take(1 << p)
	if regs == nil {
		return nil
	}
	h := NewHLL(p)
	copy(h.registers, regs)
	for i, v := range h.registers {
		// rho never exceeds 64-p+1 bits of tail.
		if int(v) > 64-p+1 {
			r.Fail("HLL register %d holds impossible rho %d", i, v)
			return nil
		}
	}
	return h
}
