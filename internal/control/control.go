// Package control is the online predict→act mitigation control plane the
// paper's §8 thesis calls for: a runtime controller that watches per-epoch
// traffic observations accumulated *during* a simulation, feeds rolling
// per-BS/per-VD/per-WT rate series into predict models, and drives the
// mitigation levers the earlier chapters evaluated offline — inter-BS
// segment migrations (§6), throttle lending overrides (§5, Appendix B), and
// QP rebinding hints (§4) — one epoch ahead of the traffic they mitigate.
//
// Determinism is the design constraint everything here bends around. The
// engine simulates each virtual disk whole, from a single sequential RNG
// stream, so a controller cannot interleave with generation without changing
// draws. Instead a controlled run is one generation, one plan and one run
// over the same seed: an observe pass that draws the run's events, keeps them
// and counts them into an Observation (integer counters per epoch and entity;
// ebs.Sim.Observe — it simulates nothing, because every counter is a function
// of the generated stream alone), then a sequential control loop replaying
// the epochs in order (each policy sees only epochs <= e when deciding for
// e+1), and finally an actuated pass over the kept events that applies the
// compiled Timeline through RNG-free lookups in the engine's emit path. In
// check mode the actuated pass's DiTing metric rows, folded by AddRows, must
// reproduce the observation the plan was built from. Every decision lands in
// an epoch-stamped, fingerprintable log. See DESIGN.md, "Mitigation control
// plane".
package control

import (
	"fmt"
	"math"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
	"ebslab/internal/wire"
)

// ObsShape fixes the dimensions of an Observation so the controller can
// interpret the flattened counters. Every field is a pure function of
// (fleet, run options), never of scheduling.
type ObsShape struct {
	// EpochSec is the control cadence: observations aggregate into
	// ceil(DurSec/EpochSec) epochs and the controller decides once per epoch.
	EpochSec int
	// DurSec is the observed window.
	DurSec int
	// Segments, VDs, QPs and WTs size the entity axes (WTs counts worker
	// threads fleet-wide, flattened via WTBase).
	Segments int
	VDs      int
	QPs      int
	WTs      int
	// WTBase[node] is the global index of that compute node's worker thread
	// 0; a batch row's global WT index is WTBase[Node] + WT.
	WTBase []int
	// Scale rescales thinned counters back to full-rate units (the run's
	// EventSampleEvery), so series compare against caps directly.
	Scale float64
}

// Epochs returns the number of whole-or-partial epochs in the window.
func (s ObsShape) Epochs() int {
	if s.EpochSec <= 0 || s.DurSec <= 0 {
		return 0
	}
	return (s.DurSec + s.EpochSec - 1) / s.EpochSec
}

// Validate rejects shapes that cannot index a batch row.
func (s ObsShape) Validate() error {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"EpochSec", s.EpochSec}, {"DurSec", s.DurSec},
		{"Segments", s.Segments}, {"VDs", s.VDs}, {"QPs", s.QPs}, {"WTs", s.WTs},
	} {
		if c.v <= 0 {
			return fmt.Errorf("control: ObsShape.%s is %d, want > 0", c.name, c.v)
		}
	}
	if len(s.WTBase) == 0 {
		return fmt.Errorf("control: ObsShape.WTBase is empty")
	}
	if s.Scale <= 0 || math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) {
		return fmt.Errorf("control: ObsShape.Scale is %v, want finite > 0", s.Scale)
	}
	return nil
}

// Observation is the controller's telemetry: exact integer counters per
// (epoch, entity), counted IO by IO from the generated stream (Add) or folded
// from a run's merged metric rows (AddRows) — the two agree, and both are
// worker-count invariant, the property that keeps the decision log
// byte-stable across worker counts. Memory is epochs x entities, independent
// of the IO count.
type Observation struct {
	Shape ObsShape

	// Flattened [epoch*axis + id] counters.
	segR, segW []uint64 // bytes read/written per segment
	vdBytes    []uint64 // bytes per VD
	vdOps      []uint64 // IOs per VD
	qpOps      []uint64 // IOs per queue pair
}

// NewObservation allocates a zeroed observation of the shape.
func NewObservation(shape ObsShape) *Observation {
	e := shape.Epochs()
	return &Observation{
		Shape:   shape,
		segR:    make([]uint64, e*shape.Segments),
		segW:    make([]uint64, e*shape.Segments),
		vdBytes: make([]uint64, e*shape.VDs),
		vdOps:   make([]uint64, e*shape.VDs),
		qpOps:   make([]uint64, e*shape.QPs),
	}
}

// EpochOf maps a simulated second to its epoch, clamped into range (the
// generator can emit at the window's final instant).
func (o *Observation) EpochOf(sec int) int {
	ep := sec / o.Shape.EpochSec
	if max := o.Shape.Epochs() - 1; ep > max {
		ep = max
	}
	if ep < 0 {
		ep = 0
	}
	return ep
}

// AddRows folds a run's UNSCALED metric rows into the counters: compute rows
// carry VD and QP with that second's byte and op sums, storage rows the
// segment's read and write bytes. The rows aggregate every generated IO (not
// just the trace-sampled ones), and their sums are integer-valued float64s —
// exact below 2^53 — so the counters equal a per-IO count. Every counter is
// keyed by what an IO is (its VD, QP, segment, second), never by where a
// timeline routed it (worker thread, BlockServer): the observation of an
// actuated run equals the observe pass's.
func (o *Observation) AddRows(compute, storage []trace.MetricRow) {
	sh := &o.Shape
	for i := range compute {
		r := &compute[i]
		ep := o.EpochOf(int(r.Sec))
		ops := uint64(r.ReadIOPS + r.WriteIOPS)
		vd := ep*sh.VDs + int(r.VD)
		o.vdBytes[vd] += uint64(r.ReadBps + r.WriteBps)
		o.vdOps[vd] += ops
		o.qpOps[ep*sh.QPs+int(r.QP)] += ops
	}
	for i := range storage {
		r := &storage[i]
		seg := o.EpochOf(int(r.Sec))*sh.Segments + int(r.Segment)
		o.segR[seg] += uint64(r.ReadBps)
		o.segW[seg] += uint64(r.WriteBps)
	}
}

// Add counts one IO — the per-IO form of the row fold, for a pass that has
// events and no metric rows (ebs.Sim.Observe). A QP and a segment belong to
// one disk, so goroutines adding for disjoint disks write disjoint slots and
// need no lock; integer adds make the counters independent of the order IOs
// arrive in.
func (o *Observation) Add(timeUS int64, op trace.Op, size int32, vd cluster.VDID, qp cluster.QPID, seg cluster.SegmentID) {
	sh := &o.Shape
	ep := o.EpochOf(int(timeUS / 1_000_000))
	if op == trace.OpRead {
		o.segR[ep*sh.Segments+int(seg)] += uint64(size)
	} else {
		o.segW[ep*sh.Segments+int(seg)] += uint64(size)
	}
	o.vdBytes[ep*sh.VDs+int(vd)] += uint64(size)
	o.vdOps[ep*sh.VDs+int(vd)]++
	o.qpOps[ep*sh.QPs+int(qp)]++
}

// SegBytes returns segment seg's total (read+write) bytes in epoch ep,
// rescaled to full-rate units.
func (o *Observation) SegBytes(ep, seg int) float64 {
	i := ep*o.Shape.Segments + seg
	return float64(o.segR[i]+o.segW[i]) * o.Shape.Scale
}

// VDBps returns VD vd's mean offered throughput (bytes/s) in epoch ep.
func (o *Observation) VDBps(ep, vd int) float64 {
	return float64(o.vdBytes[ep*o.Shape.VDs+vd]) * o.Shape.Scale / float64(o.epochLen(ep))
}

// VDIOPS returns VD vd's mean offered IO rate (ops/s) in epoch ep.
func (o *Observation) VDIOPS(ep, vd int) float64 {
	return float64(o.vdOps[ep*o.Shape.VDs+vd]) * o.Shape.Scale / float64(o.epochLen(ep))
}

// QPOps returns queue pair qp's IO count in epoch ep (full-rate units).
func (o *Observation) QPOps(ep, qp int) float64 {
	return float64(o.qpOps[ep*o.Shape.QPs+qp]) * o.Shape.Scale
}

// epochLen returns epoch ep's length in seconds (the last epoch may be
// truncated by the window).
func (o *Observation) epochLen(ep int) int {
	n := o.Shape.EpochSec
	if last := o.Shape.DurSec - ep*o.Shape.EpochSec; last < n {
		n = last
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Fingerprint digests every counter in canonical order; two observations
// fingerprint identically iff they observed the same traffic.
func (o *Observation) Fingerprint() string {
	d := new(wire.Digest)
	d.U64(uint64(o.Shape.Epochs()))
	for _, xs := range [][]uint64{o.segR, o.segW, o.vdBytes, o.vdOps, o.qpOps} {
		d.U64(uint64(len(xs)))
		for _, x := range xs {
			d.U64(x)
		}
	}
	return d.Sum()
}
