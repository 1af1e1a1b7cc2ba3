// Package core is the analysis pipeline — the paper's primary contribution
// re-expressed as code. A Study wraps one synthesized fleet and exposes one
// method per table and figure of the evaluation (see DESIGN.md's
// per-experiment index); each returns a typed result with a Render method
// that prints a paper-style text table.
package core

import (
	"context"
	"sync"

	"ebslab/internal/cluster"
	"ebslab/internal/invariant"
	"ebslab/internal/par"
	"ebslab/internal/stats"
	"ebslab/internal/workload"
)

// Study is one analysis session over a generated fleet.
type Study struct {
	Fleet *workload.Fleet
	// Dur is the observation window in seconds (taken from the fleet config
	// unless overridden before first use).
	Dur int
	// Workers bounds the worker pool of the fleet-wide aggregation pass and
	// of the forecaster scores (0 = one per CPU). Results are identical for
	// every worker count.
	Workers int

	once sync.Once
	tot  totals

	s6Once   sync.Once
	s6       section6View
	fcScores [numForecasters]struct {
		once   sync.Once
		median float64
	}

	lawMu sync.Mutex
	laws  invariant.Report // what the experiments' law checks found, guarded by lawMu
}

// totals caches the one-pass aggregation every spatial analysis shares.
type totals struct {
	// Per-QP total bytes over the window (indexed by QPID).
	qpRead, qpWrite []float64
	// Per-VD total bytes and P2A per direction (indexed by VDID).
	vdRead, vdWrite   []float64
	vdP2AR, vdP2AW    []float64
	vmRead, vmWrite   []float64 // per VM
	segRead, segWrite []float64 // per segment
}

// NewStudy generates a fleet from cfg and wraps it.
func NewStudy(cfg workload.Config) (*Study, error) {
	f, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &Study{Fleet: f, Dur: cfg.DurationSec}, nil
}

// Laws returns nil while every law the study's experiments ran has held —
// the throttle's grant budget, the cache accounting and the balancer's
// migration replay — or an error naming each broken law.
func (s *Study) Laws() error {
	s.lawMu.Lock()
	defer s.lawMu.Unlock()
	return s.laws.Err()
}

// fold adds the violations one experiment's law checks retained in rep to
// the study's report.
func (s *Study) fold(rep *invariant.Report) {
	if rep.OK() {
		return
	}
	s.lawMu.Lock()
	defer s.lawMu.Unlock()
	for _, v := range rep.Violations {
		s.laws.Addf(v.Law, "%s", v.Msg)
	}
}

// ensureTotals performs the shared aggregation pass over all VD series,
// parallelized across the study's worker pool. Every per-VD write lands in
// slice slots owned by that VD (its own QPs and segments), so the pass is
// race-free and its output independent of scheduling; the only cross-VD
// accumulation (per-VM sums) runs as a sequential fold afterwards.
func (s *Study) ensureTotals() *totals {
	s.once.Do(func() {
		top := s.Fleet.Topology
		t := &s.tot
		t.qpRead = make([]float64, len(top.QPs))
		t.qpWrite = make([]float64, len(top.QPs))
		t.vdRead = make([]float64, len(top.VDs))
		t.vdWrite = make([]float64, len(top.VDs))
		t.vdP2AR = make([]float64, len(top.VDs))
		t.vdP2AW = make([]float64, len(top.VDs))
		t.vmRead = make([]float64, len(top.VMs))
		t.vmWrite = make([]float64, len(top.VMs))
		t.segRead = make([]float64, len(top.Segments))
		t.segWrite = make([]float64, len(top.Segments))

		par.ForEach(context.Background(), len(top.VDs), s.Workers, func(vdIdx int) error {
			vd := &top.VDs[vdIdx]
			m := &s.Fleet.Models[vdIdx]
			series := s.Fleet.VDSeries(cluster.VDID(vdIdx), s.Dur)
			rs := make([]float64, len(series))
			ws := make([]float64, len(series))
			var rTot, wTot float64
			for i, smp := range series {
				rs[i], ws[i] = smp.ReadBps, smp.WriteBps
				rTot += smp.ReadBps
				wTot += smp.WriteBps
			}
			t.vdRead[vdIdx], t.vdWrite[vdIdx] = rTot, wTot
			t.vdP2AR[vdIdx] = stats.P2A(rs)
			t.vdP2AW[vdIdx] = stats.P2A(ws)
			for i, qp := range vd.QPs {
				t.qpRead[qp] = rTot * m.QPWeightsRead[i]
				t.qpWrite[qp] = wTot * m.QPWeightsWrite[i]
			}
			for i, seg := range vd.Segments {
				t.segRead[seg] = rTot * m.SegWeightsRead[i]
				t.segWrite[seg] = wTot * m.SegWeightsWrite[i]
			}
			return nil
		})
		// Per-VM sums cross VD boundaries; fold them sequentially in VD
		// order so float addition order (and thus the result) is fixed.
		for vdIdx := range top.VDs {
			vm := top.VDs[vdIdx].VM
			t.vmRead[vm] += t.vdRead[vdIdx]
			t.vmWrite[vm] += t.vdWrite[vdIdx]
		}
	})
	return &s.tot
}

// nodeQPTraffic returns per-QP totals (read+write, or one direction) for a
// node, aligned with Topology.NodeQPs order.
func (s *Study) nodeQPTraffic(n cluster.NodeID, dir direction) []float64 {
	t := s.ensureTotals()
	qps := s.Fleet.Topology.NodeQPs(n)
	out := make([]float64, len(qps))
	for i, qp := range qps {
		switch dir {
		case dirRead:
			out[i] = t.qpRead[qp]
		case dirWrite:
			out[i] = t.qpWrite[qp]
		default:
			out[i] = t.qpRead[qp] + t.qpWrite[qp]
		}
	}
	return out
}

// workloadEvent aliases the generator's event type for the cache analyses.
type workloadEvent = workload.Event

// direction selects read, write, or combined traffic in shared helpers.
type direction uint8

const (
	dirBoth direction = iota
	dirRead
	dirWrite
)

func (d direction) String() string {
	switch d {
	case dirRead:
		return "read"
	case dirWrite:
		return "write"
	}
	return "total"
}
