package invariant

import (
	"math"
	"testing"

	"ebslab/internal/balancer"
	"ebslab/internal/cluster"
	"ebslab/internal/diting"
	"ebslab/internal/throttle"
	"ebslab/internal/trace"
)

// Metamorphic relations: transformations of the input with a known, exact
// effect on the output. They need no oracle values, so they catch semantic
// drift the shape tests cannot. Scale factors are powers of two so float
// arithmetic commutes with the transformation exactly.

// --- throttle --------------------------------------------------------------

func throttleScenario() ([]throttle.Caps, [][]throttle.Demand) {
	caps := []throttle.Caps{{Tput: 1 << 10, IOPS: 1 << 4}, {Tput: 1 << 11, IOPS: 1 << 5}}
	demand := make([][]throttle.Demand, 2)
	for vd := range demand {
		demand[vd] = make([]throttle.Demand, 20)
		for s := range demand[vd] {
			demand[vd][s] = throttle.Demand{
				ReadBps:   float64((s*131 + vd*17) % 3000),
				WriteBps:  float64((s*257 + vd*31) % 2500),
				ReadIOPS:  float64(s % 9),
				WriteIOPS: float64((s + vd) % 31),
			}
		}
	}
	return caps, demand
}

// TestThrottleScaleInvariance: scaling caps and demand by the same power of
// two must leave throttled seconds and queueing delays bit-identical — the
// throttle is a pure ratio machine.
func TestThrottleScaleInvariance(t *testing.T) {
	caps, demand := throttleScenario()
	base := new(throttle.Scratch).Simulate(caps, demand)

	const k = 4
	scaledCaps := make([]throttle.Caps, len(caps))
	for i, c := range caps {
		scaledCaps[i] = throttle.Caps{Tput: c.Tput * k, IOPS: c.IOPS * k}
	}
	scaledDemand := make([][]throttle.Demand, len(demand))
	for vd := range demand {
		scaledDemand[vd] = make([]throttle.Demand, len(demand[vd]))
		for s, d := range demand[vd] {
			scaledDemand[vd][s] = throttle.Demand{
				ReadBps: d.ReadBps * k, WriteBps: d.WriteBps * k,
				ReadIOPS: d.ReadIOPS * k, WriteIOPS: d.WriteIOPS * k,
			}
		}
	}
	scaled := new(throttle.Scratch).Simulate(scaledCaps, scaledDemand)

	if scaled.TotalThrottledSecs != base.TotalThrottledSecs {
		t.Fatalf("total throttled secs %d != %d under x%d scaling", scaled.TotalThrottledSecs, base.TotalThrottledSecs, k)
	}
	for vd := range base.QueueDelaySec {
		if base.ThrottledSecs[vd] != scaled.ThrottledSecs[vd] {
			t.Errorf("vd %d: throttled secs %d != %d", vd, scaled.ThrottledSecs[vd], base.ThrottledSecs[vd])
		}
		for s := range base.QueueDelaySec[vd] {
			if base.QueueDelaySec[vd][s] != scaled.QueueDelaySec[vd][s] {
				t.Fatalf("vd %d sec %d: delay %v != %v under scaling", vd, s,
					scaled.QueueDelaySec[vd][s], base.QueueDelaySec[vd][s])
			}
		}
	}
}

// TestThrottleReadWriteRelabelInvariance: the caps aggregate reads and
// writes (§5.2), so relabeling every read as a write and vice versa must
// not change throttling at all.
func TestThrottleReadWriteRelabelInvariance(t *testing.T) {
	caps, demand := throttleScenario()
	base := new(throttle.Scratch).Simulate(caps, demand)

	swapped := make([][]throttle.Demand, len(demand))
	for vd := range demand {
		swapped[vd] = make([]throttle.Demand, len(demand[vd]))
		for s, d := range demand[vd] {
			swapped[vd][s] = throttle.Demand{
				ReadBps: d.WriteBps, WriteBps: d.ReadBps,
				ReadIOPS: d.WriteIOPS, WriteIOPS: d.ReadIOPS,
			}
		}
	}
	res := new(throttle.Scratch).Simulate(caps, swapped)
	if res.TotalThrottledSecs != base.TotalThrottledSecs {
		t.Fatalf("R/W relabel changed throttling: %d != %d", res.TotalThrottledSecs, base.TotalThrottledSecs)
	}
	for vd := range base.QueueDelaySec {
		for s := range base.QueueDelaySec[vd] {
			if base.QueueDelaySec[vd][s] != res.QueueDelaySec[vd][s] {
				t.Fatalf("vd %d sec %d: delay changed under R/W relabel", vd, s)
			}
		}
	}
}

// --- balancer --------------------------------------------------------------

// TestBalancerScaleInvariance: Algorithm 1 thresholds are multiples of the
// cluster average, so scaling all traffic by a power of two must reproduce
// the identical migration log and identical CoVs.
func TestBalancerScaleInvariance(t *testing.T) {
	seg2bs, traffic, base := balancerScenario()
	const k = 8
	scaled := make([][]balancer.RW, len(traffic))
	for s := range traffic {
		scaled[s] = make([]balancer.RW, len(traffic[s]))
		for p, rw := range traffic[s] {
			scaled[s][p] = balancer.RW{R: rw.R * k, W: rw.W * k}
		}
	}
	res := balancer.Run(seg2bs, scaled, balancer.MinTrafficPolicy{}, balancer.DefaultConfig())
	if len(res.Migrations) != len(base.Migrations) {
		t.Fatalf("x%d scaling changed migration count: %d != %d", k, len(res.Migrations), len(base.Migrations))
	}
	for i := range base.Migrations {
		if res.Migrations[i] != base.Migrations[i] {
			t.Fatalf("migration %d differs under scaling: %+v != %+v", i, res.Migrations[i], base.Migrations[i])
		}
	}
	for p := range base.WriteCoV {
		if !eqNaN(res.WriteCoV[p], base.WriteCoV[p]) || !eqNaN(res.ReadCoV[p], base.ReadCoV[p]) {
			t.Fatalf("period %d: CoV changed under scaling", p)
		}
	}
}

// --- diting ----------------------------------------------------------------

// syntheticRecords fabricates nVDs disks' worth of interleaved IOs with the
// engine's per-VD trace-ID stream convention.
func syntheticRecords(nVDs, perVD int) [][]trace.Record {
	out := make([][]trace.Record, nVDs)
	for vd := 0; vd < nVDs; vd++ {
		base := (uint64(vd) + 1) << 40
		for i := 0; i < perVD; i++ {
			op := trace.OpWrite
			if (i+vd)%3 == 0 {
				op = trace.OpRead
			}
			out[vd] = append(out[vd], trace.Record{
				TraceID: base + uint64(i) + 1,
				TimeUS:  int64(i)*50_000 + int64(vd)*7_000,
				Op:      op,
				Size:    4096 * int32(1+i%4),
				Offset:  int64(i%64) * 4096,
				VD:      cluster.VDID(vd),
				QP:      cluster.QPID(vd*2 + i%2),
				Segment: cluster.SegmentID(vd*3 + i%3),
				Storage: cluster.StorageNodeID(vd % 2),
			})
		}
	}
	return out
}

func mergeInOrder(perVD [][]trace.Record, order []int, shardsN int) *diting.Tracer {
	shards := make([]*diting.Tracer, shardsN)
	for i := range shards {
		shards[i] = diting.New(1)
	}
	// Ingest via the columnar batch path with a tiny capacity, so every VD
	// crosses several flush boundaries — exactly the engine's EmitBatch shape.
	batch := trace.NewBatch(7)
	for i, vd := range order {
		sh := shards[i%shardsN]
		for j := range perVD[vd] {
			if batch.Full() {
				sh.EmitBatch(batch)
				batch.Reset()
			}
			batch.Append(&perVD[vd][j])
		}
		sh.EmitBatch(batch)
		batch.Reset()
	}
	return diting.Merge(1, shards...)
}

// TestMergePermutationInvariance: dealing virtual disks to shards in any
// order, across any shard count, must merge to the identical dataset — the
// conservation law behind worker-count determinism.
func TestMergePermutationInvariance(t *testing.T) {
	perVD := syntheticRecords(6, 40)
	ref := mergeInOrder(perVD, []int{0, 1, 2, 3, 4, 5}, 1)
	for _, tc := range []struct {
		order  []int
		shards int
	}{
		{[]int{5, 4, 3, 2, 1, 0}, 1},
		{[]int{2, 0, 4, 1, 5, 3}, 2},
		{[]int{3, 5, 1, 0, 2, 4}, 3},
		{[]int{0, 1, 2, 3, 4, 5}, 6},
	} {
		got := mergeInOrder(perVD, tc.order, tc.shards)
		if a, b := len(got.Records()), len(ref.Records()); a != b {
			t.Fatalf("order %v/%d shards: %d records, want %d", tc.order, tc.shards, a, b)
		}
		for i, rec := range got.Records() {
			if rec != ref.Records()[i] {
				t.Fatalf("order %v/%d shards: record %d differs: %+v != %+v",
					tc.order, tc.shards, i, rec, ref.Records()[i])
			}
		}
		gr, rr := got.ComputeRows(), ref.ComputeRows()
		if len(gr) != len(rr) {
			t.Fatalf("order %v: %d compute rows, want %d", tc.order, len(gr), len(rr))
		}
		for i := range gr {
			if gr[i] != rr[i] {
				t.Fatalf("order %v: compute row %d differs", tc.order, i)
			}
		}
		gs, rs := got.StorageRows(), ref.StorageRows()
		for i := range gs {
			if gs[i] != rs[i] {
				t.Fatalf("order %v: storage row %d differs", tc.order, i)
			}
		}
	}
}

// TestMergePermutationDetectsDroppedVD: the same oracle must convict a
// shard that silently loses a disk — the injected conservation bug.
func TestMergePermutationDetectsDroppedVD(t *testing.T) {
	perVD := syntheticRecords(6, 40)
	ref := mergeInOrder(perVD, []int{0, 1, 2, 3, 4, 5}, 1)
	broken := mergeInOrder(perVD, []int{0, 1, 2, 3, 4}, 2) // VD 5 dropped mid-merge
	if len(broken.Records()) == len(ref.Records()) {
		t.Fatal("dropped disk left record count unchanged; the oracle is vacuous")
	}
}

// TestRelabelSwapsDirectionalRows: flipping every IO's opcode must exactly
// swap the Read*/Write* columns of both metric domains and negate the
// write-ratio of every row (the W2R relabeling relation).
func TestRelabelSwapsDirectionalRows(t *testing.T) {
	perVD := syntheticRecords(4, 60)
	base := mergeInOrder(perVD, []int{0, 1, 2, 3}, 2)

	flipped := make([][]trace.Record, len(perVD))
	for vd := range perVD {
		flipped[vd] = make([]trace.Record, len(perVD[vd]))
		for i, rec := range perVD[vd] {
			if rec.Op == trace.OpRead {
				rec.Op = trace.OpWrite
			} else {
				rec.Op = trace.OpRead
			}
			flipped[vd][i] = rec
		}
	}
	flip := mergeInOrder(flipped, []int{0, 1, 2, 3}, 2)

	check := func(kind string, a, b []trace.MetricRow) {
		if len(a) != len(b) {
			t.Fatalf("%s: row counts differ: %d != %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i].ReadBps != b[i].WriteBps || a[i].WriteBps != b[i].ReadBps ||
				a[i].ReadIOPS != b[i].WriteIOPS || a[i].WriteIOPS != b[i].ReadIOPS {
				t.Fatalf("%s row %d: relabel did not swap directional columns:\n%+v\n%+v", kind, i, a[i], b[i])
			}
			wr := wrRatio(a[i].WriteBps, a[i].ReadBps)
			fl := wrRatio(b[i].WriteBps, b[i].ReadBps)
			if !math.IsNaN(wr) && wr != -fl {
				t.Fatalf("%s row %d: W2R %v did not negate (%v)", kind, i, wr, fl)
			}
		}
	}
	check("compute", base.ComputeRows(), flip.ComputeRows())
	check("storage", base.StorageRows(), flip.StorageRows())
}

func wrRatio(w, r float64) float64 {
	if w+r == 0 {
		return math.NaN()
	}
	return (w - r) / (w + r)
}
