// Package hypervisor models the compute-side IO virtualization framework of
// §2.2 and §4: polling worker threads (WTs) that host virtual-disk queue
// pairs (QPs) under single-WT hosting, the round-robin QP-to-WT load
// balancer, the node skewness taxonomy (Type I/II/III), the periodic
// QP-rebinding balancer the paper evaluates and finds wanting, and the
// per-IO multi-WT dispatch alternative it proposes.
package hypervisor

import (
	"ebslab/internal/cluster"
	"ebslab/internal/stats"
)

// Binding maps each QP of one compute node to a worker-thread index in
// [0, WorkerNum). The QP order is the node's canonical order
// (Topology.NodeQPs).
type Binding struct {
	Node cluster.NodeID
	QPs  []cluster.QPID // canonical QP order of the node
	WTOf []int8         // WTOf[i] is the worker thread of QPs[i]
	WTs  int
}

// RoundRobin builds the production binding (§2.2): QPs are assigned to
// worker threads in round-robin order as they are created.
func RoundRobin(top *cluster.Topology, node cluster.NodeID) *Binding {
	qps := top.NodeQPs(node)
	b := &Binding{
		Node: node,
		QPs:  qps,
		WTOf: make([]int8, len(qps)),
		WTs:  top.Nodes[node].WorkerNum,
	}
	for i := range qps {
		b.WTOf[i] = int8(i % b.WTs)
	}
	return b
}

// Clone returns a deep copy of the binding.
func (b *Binding) Clone() *Binding {
	return &Binding{
		Node: b.Node,
		QPs:  b.QPs, // canonical order is immutable, safe to share
		WTOf: append([]int8(nil), b.WTOf...),
		WTs:  b.WTs,
	}
}

// SwapWTs exchanges the QP sets bound to worker threads a and b, which is
// the paper's rebinding action (§4.3).
func (b *Binding) SwapWTs(a, c int8) {
	for i, wt := range b.WTOf {
		switch wt {
		case a:
			b.WTOf[i] = c
		case c:
			b.WTOf[i] = a
		}
	}
}

func nan() float64 { return stats.Mean(nil) }
