package sketch

import (
	"math"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
)

// synthRecords builds a deterministic stream of records over nVDs virtual
// disks. Segment IDs are disjoint per VD (seg = vd*100 + local), mirroring
// the topology invariant the engine relies on.
func synthRecords(seed rng, n, nVDs int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		vd := i % nVDs
		op := trace.OpRead
		if seed.next()%3 == 0 {
			op = trace.OpWrite
		}
		size := int32(4096 << (seed.next() % 5))
		recs[i] = trace.Record{
			TimeUS:  int64(i) * 700,
			Op:      op,
			Size:    size,
			Offset:  int64(seed.next() % (1 << 30)),
			VD:      cluster.VDID(vd),
			Segment: cluster.SegmentID(vd*100 + int(seed.next()%6)),
			Latency: [trace.NumStages]float32{float32(10 + seed.next()%500), 20, 30, 10, 40},
		}
	}
	return recs
}

// TestSetShardingInvariance is the subsystem's core determinism contract:
// however whole-VD record groups are distributed across shard sets, the
// merged fingerprint equals the single-set sequential ingest.
func TestSetShardingInvariance(t *testing.T) {
	const nVDs = 8
	recs := synthRecords(rng(42), 4000, nVDs)
	cfg := Config{DurationSec: 3, TputCapSum: 1e9}

	ref := NewSet(cfg)
	for vd := 0; vd < nVDs; vd++ {
		for i := range recs {
			if int(recs[i].VD) == vd {
				ref.Observe(&recs[i])
			}
		}
	}
	refFP := ref.Fingerprint()

	// Three different shardings, including reversed VD assignment order.
	for _, grouping := range [][][]int{
		{{0, 1, 2, 3, 4, 5, 6, 7}},
		{{0, 2, 4, 6}, {1, 3, 5, 7}},
		{{7, 1}, {6, 0}, {5, 3}, {4, 2}},
	} {
		shards := make([]*Set, len(grouping))
		for si, vds := range grouping {
			shards[si] = NewSet(cfg)
			for _, vd := range vds {
				for i := range recs {
					if int(recs[i].VD) == vd {
						shards[si].Observe(&recs[i])
					}
				}
			}
		}
		// Merge in shard order and, for the multi-shard cases, also in
		// reverse order: the combine must be order-insensitive.
		merged := NewSet(cfg)
		for _, sh := range shards {
			merged.Merge(sh)
		}
		if fp := merged.Fingerprint(); fp != refFP {
			t.Fatalf("grouping %v: fingerprint %s != reference %s", grouping, fp[:12], refFP[:12])
		}
	}
}

func TestSetMergeOrderInsensitive(t *testing.T) {
	recs := synthRecords(rng(9), 2000, 6)
	cfg := Config{}
	build := func(vds ...int) *Set {
		s := NewSet(cfg)
		for _, vd := range vds {
			for i := range recs {
				if int(recs[i].VD) == vd {
					s.Observe(&recs[i])
				}
			}
		}
		return s
	}
	ab := build(0, 1, 2)
	ab.Merge(build(3, 4, 5))
	ba := build(3, 4, 5)
	ba.Merge(build(0, 1, 2))
	if ab.Fingerprint() != ba.Fingerprint() {
		t.Fatal("Set.Merge is not order-insensitive")
	}
}

// TestMergeLeavesSourceIntact pins Merge's ownership contract: the source is
// only read. Ingesting into the destination afterwards — on virtual disks
// whose state came from the source — must not change the source, and one
// source merged into two destinations must give the same state twice.
func TestMergeLeavesSourceIntact(t *testing.T) {
	recs := synthRecords(rng(7), 2000, 4)
	cfg := Config{DurationSec: 2, TputCapSum: 1e9}
	b := NewSet(cfg)
	for i := range recs[:1000] {
		b.Observe(&recs[i])
	}
	bFP := b.Fingerprint()

	a := NewSet(cfg)
	a.Merge(b)
	for i := range recs[1000:] {
		a.Observe(&recs[1000+i]) // every VD here entered a through b
	}
	if got := b.Fingerprint(); got != bFP {
		t.Fatalf("source changed after its destination kept ingesting: %s != %s", got, bFP)
	}

	c := NewSet(cfg)
	c.Merge(b)
	if got := c.Fingerprint(); got != bFP {
		t.Fatalf("second merge of one source gives %s, want the source's own %s", got, bFP)
	}
	b.Observe(&recs[0])
	if got := c.Fingerprint(); got != bFP {
		t.Fatalf("destination changed when its source kept ingesting: %s != %s", got, bFP)
	}
}

func TestSetTotalsConservation(t *testing.T) {
	recs := synthRecords(rng(5), 1000, 4)
	var wantBytes uint64
	for i := range recs {
		wantBytes += uint64(recs[i].Size)
	}
	a, b := NewSet(Config{}), NewSet(Config{})
	for i := range recs {
		if int(recs[i].VD) < 2 {
			a.Observe(&recs[i])
		} else {
			b.Observe(&recs[i])
		}
	}
	sum := a.Totals()
	sum.Add(b.Totals())
	a.Merge(b)
	if a.Totals() != sum {
		t.Fatalf("merged totals %+v != summed shard totals %+v", a.Totals(), sum)
	}
	if a.Totals().IOs != 1000 || a.Totals().Bytes != wantBytes {
		t.Fatalf("totals %+v, want 1000 IOs / %d bytes", a.Totals(), wantBytes)
	}
}

func TestSetSkewnessBasics(t *testing.T) {
	recs := synthRecords(rng(17), 6000, 8)
	s := NewSet(Config{TputCapSum: 1e12, Scale: 2})
	for i := range recs {
		s.Observe(&recs[i])
	}
	sk := s.Skewness()
	if sk.IOs != 12000 {
		t.Fatalf("scaled IOs = %d, want 12000", sk.IOs)
	}
	if !(sk.CCR10 > 0 && sk.CCR10 <= 1) || !(sk.CCR1 <= sk.CCR10) {
		t.Fatalf("CCR out of range: ccr1=%g ccr10=%g", sk.CCR1, sk.CCR10)
	}
	if !(sk.WrRatio >= -1 && sk.WrRatio <= 1) {
		t.Fatalf("wr_ratio = %g", sk.WrRatio)
	}
	if len(sk.HotVDs) != 8 {
		t.Fatalf("hot VDs = %d, want 8", len(sk.HotVDs))
	}
	if len(sk.HotSegments) == 0 || len(sk.HotSegments) > 32 {
		t.Fatalf("hot segments = %d", len(sk.HotSegments))
	}
	if !(sk.MeanRAR > 0 && sk.MeanRAR <= 1) {
		t.Fatalf("RAR = %g", sk.MeanRAR)
	}
	if !(sk.LatencyP50 > 0 && sk.LatencyP99 >= sk.LatencyP50) {
		t.Fatalf("latency quantiles p50=%g p99=%g", sk.LatencyP50, sk.LatencyP99)
	}
	if sk.ActiveSegments <= 0 || sk.ActiveBlocks <= 0 {
		t.Fatalf("cardinalities %g / %g", sk.ActiveBlocks, sk.ActiveSegments)
	}
	if math.IsNaN(sk.EWMABps) || sk.EWMABps <= 0 {
		t.Fatalf("EWMA = %g", sk.EWMABps)
	}
}
