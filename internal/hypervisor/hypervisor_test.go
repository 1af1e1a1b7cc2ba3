package hypervisor

import (
	"math"
	"testing"

	"ebslab/internal/cluster"
)

// testTopology builds a node with 4 WTs hosting 2 VMs: VM0 has one VD with
// one QP, VM1 has two VDs with (2,1) QPs — 4 QPs total. A second node has 4
// WTs but only 2 QPs (Type I shape).
func testTopology(t *testing.T) *cluster.Topology {
	t.Helper()
	top := &cluster.Topology{DCs: 1, Users: 2}
	top.Nodes = []cluster.ComputeNode{
		{ID: 0, WorkerNum: 4, VMs: []cluster.VMID{0, 1}},
		{ID: 1, WorkerNum: 4, VMs: []cluster.VMID{2}},
	}
	top.VMs = []cluster.VM{
		{ID: 0, User: 0, Node: 0, VDs: []cluster.VDID{0}},
		{ID: 1, User: 1, Node: 0, VDs: []cluster.VDID{1, 2}},
		{ID: 2, User: 1, Node: 1, VDs: []cluster.VDID{3}},
	}
	top.VDs = []cluster.VD{
		{ID: 0, VM: 0, Capacity: 32 << 30, QPs: []cluster.QPID{0}, Segments: []cluster.SegmentID{0}},
		{ID: 1, VM: 1, Capacity: 32 << 30, QPs: []cluster.QPID{1, 2}, Segments: []cluster.SegmentID{1}},
		{ID: 2, VM: 1, Capacity: 32 << 30, QPs: []cluster.QPID{3}, Segments: []cluster.SegmentID{2}},
		{ID: 3, VM: 2, Capacity: 32 << 30, QPs: []cluster.QPID{4, 5}, Segments: []cluster.SegmentID{3}},
	}
	top.QPs = []cluster.QP{
		{ID: 0, VD: 0}, {ID: 1, VD: 1}, {ID: 2, VD: 1}, {ID: 3, VD: 2},
		{ID: 4, VD: 3}, {ID: 5, VD: 3},
	}
	top.Segments = []cluster.Segment{
		{ID: 0, VD: 0}, {ID: 1, VD: 1}, {ID: 2, VD: 2}, {ID: 3, VD: 3},
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("test topology invalid: %v", err)
	}
	return top
}

func TestRoundRobinBinding(t *testing.T) {
	top := testTopology(t)
	b := RoundRobin(top, 0)
	if len(b.QPs) != 4 || b.WTs != 4 {
		t.Fatalf("binding shape: %d QPs, %d WTs", len(b.QPs), b.WTs)
	}
	for i, wt := range b.WTOf {
		if int(wt) != i%4 {
			t.Fatalf("WTOf[%d] = %d, want %d", i, wt, i%4)
		}
	}
}

func TestSwapWTs(t *testing.T) {
	top := testTopology(t)
	b := RoundRobin(top, 0)
	b.SwapWTs(0, 1)
	if b.WTOf[0] != 1 || b.WTOf[1] != 0 {
		t.Fatalf("after swap WTOf = %v", b.WTOf)
	}
	// Swap back restores.
	b.SwapWTs(0, 1)
	for i, wt := range b.WTOf {
		if int(wt) != i%4 {
			t.Fatalf("double swap not identity: %v", b.WTOf)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	top := testTopology(t)
	b := RoundRobin(top, 0)
	c := b.Clone()
	c.SwapWTs(0, 1)
	if b.WTOf[0] != 0 {
		t.Fatal("Clone shares WTOf storage")
	}
}

func TestClassifyTypeI(t *testing.T) {
	top := testTopology(t)
	// Node 1 has 4 WTs but only 2 QPs.
	typ, _ := Classify(top, 1, []float64{10, 5})
	if typ != TypeIdle {
		t.Fatalf("node 1 type = %v, want TypeIdle", typ)
	}
}

func TestClassifyTypeII(t *testing.T) {
	top := testTopology(t)
	// Node 0: hottest VM is VM0 (single VD, single QP).
	typ, vm := Classify(top, 0, []float64{100, 1, 1, 1})
	if typ != TypeSingleQP || vm != 0 {
		t.Fatalf("type/vm = %v/%d, want TypeSingleQP/0", typ, vm)
	}
}

func TestClassifyTypeIII(t *testing.T) {
	top := testTopology(t)
	// Node 0: hottest VM is VM1 (QPs 1,2,3).
	typ, vm := Classify(top, 0, []float64{1, 100, 5, 5})
	if typ != TypeMultiQP || vm != 1 {
		t.Fatalf("type/vm = %v/%d, want TypeMultiQP/1", typ, vm)
	}
}

func TestClassifyIdleTraffic(t *testing.T) {
	top := testTopology(t)
	typ, vm := Classify(top, 0, []float64{0, 0, 0, 0})
	if typ != TypeIdle || vm != -1 {
		t.Fatalf("all-zero node type/vm = %v/%d, want TypeIdle/-1", typ, vm)
	}
}

func TestNodeTypeString(t *testing.T) {
	if TypeIdle.String() == "" || TypeSingleQP.String() == "" || TypeMultiQP.String() == "" {
		t.Fatal("empty NodeType strings")
	}
	if NodeType(0).String() != "TypeUnknown" {
		t.Fatal("zero NodeType should be unknown")
	}
}

func TestMeasureThreeTier(t *testing.T) {
	top := testTopology(t)
	// Hottest VM is VM1; its VD1 has QPs 1,2 and VD2 has QP 3.
	m := MeasureThreeTier(top, 0, []float64{1, 80, 0, 20})
	if math.IsNaN(m.VM2QP) || math.IsNaN(m.VM2VD) || math.IsNaN(m.VD2QP) {
		t.Fatalf("three-tier has unexpected NaN: %+v", m)
	}
	if m.VM2QP <= 0 || m.VM2QP > 1 {
		t.Fatalf("VM2QP = %v outside (0,1]", m.VM2QP)
	}
	// VD2QP is CoV of {80, 0}: a single spike over two QPs -> 1.
	if math.Abs(m.VD2QP-1) > 1e-9 {
		t.Fatalf("VD2QP = %v, want 1", m.VD2QP)
	}
	// Idle node: all NaN.
	idle := MeasureThreeTier(top, 0, []float64{0, 0, 0, 0})
	if !math.IsNaN(idle.VM2QP) || !math.IsNaN(idle.VM2VD) || !math.IsNaN(idle.VD2QP) {
		t.Fatalf("idle three-tier = %+v, want NaNs", idle)
	}
}

func TestSimulateRebindingBalancesSlowSkew(t *testing.T) {
	top := testTopology(t)
	b := RoundRobin(top, 0)
	// QP 0 is persistently hot; rebinding every period should spread load
	// over time (swapping cannot split one QP, but CoV after should not
	// exceed before, and the ratio should be high).
	const slots = 400
	traffic := make([][]float64, 4)
	for q := range traffic {
		traffic[q] = make([]float64, slots)
		for s := range traffic[q] {
			if q == 0 {
				traffic[q][s] = 10
			} else {
				traffic[q][s] = 1
			}
		}
	}
	res := SimulateRebinding(b, traffic, DefaultRebindConfig())
	if res.Periods != slots {
		t.Fatalf("periods = %d, want %d", res.Periods, slots)
	}
	if res.Ratio <= 0.5 {
		t.Fatalf("persistent skew should trigger rebinding nearly always, ratio = %v", res.Ratio)
	}
	if !(res.Gain <= 1.0+1e-9) {
		t.Fatalf("gain = %v, want <= 1 for stable skew", res.Gain)
	}
}

func TestSimulateRebindingCannotCatchAlternatingBursts(t *testing.T) {
	top := testTopology(t)
	b := RoundRobin(top, 0)
	// Bursts alternate between QPs on different WTs faster than the
	// rebinding period: the balancer always reacts one period late, so the
	// gain stays near (or above) 1 — the paper's node-b phenomenon.
	const slots = 400
	traffic := make([][]float64, 4)
	for q := range traffic {
		traffic[q] = make([]float64, slots)
	}
	for s := 0; s < slots; s++ {
		traffic[s%2][s] = 100 // hot QP flips every slot between QP0 and QP1
	}
	res := SimulateRebinding(b, traffic, DefaultRebindConfig())
	if res.Ratio == 0 {
		t.Fatal("alternating bursts should trigger rebinding")
	}
	if res.Gain < 0.95 {
		t.Fatalf("gain = %v; late-by-one rebinding should not help alternating bursts", res.Gain)
	}
}

func TestSimulateRebindingIdleNode(t *testing.T) {
	top := testTopology(t)
	b := RoundRobin(top, 0)
	traffic := make([][]float64, 4)
	for q := range traffic {
		traffic[q] = make([]float64, 10)
	}
	res := SimulateRebinding(b, traffic, DefaultRebindConfig())
	if !math.IsNaN(res.Gain) {
		t.Fatalf("idle node gain = %v, want NaN", res.Gain)
	}
	if res.Ratio != 0 {
		t.Fatalf("idle node ratio = %v, want 0", res.Ratio)
	}
}

func TestSimulateRebindingDoesNotMutateBinding(t *testing.T) {
	top := testTopology(t)
	b := RoundRobin(top, 0)
	traffic := [][]float64{{5}, {1}, {1}, {1}}
	SimulateRebinding(b, traffic, RebindConfig{PeriodSlots: 1, Trigger: 1.1})
	for i, wt := range b.WTOf {
		if int(wt) != i%4 {
			t.Fatal("SimulateRebinding mutated the input binding")
		}
	}
}

func TestSimulateDispatchPolicies(t *testing.T) {
	top := testTopology(t)
	b := RoundRobin(top, 0)
	const slots = 50
	traffic := make([][]float64, 4)
	for q := range traffic {
		traffic[q] = make([]float64, slots)
	}
	for s := 0; s < slots; s++ {
		traffic[0][s] = 40 // one extremely hot QP
		traffic[1][s] = 1
	}
	single := SimulateDispatch(b, traffic, DispatchSingleWT)
	least := SimulateDispatch(b, traffic, DispatchLeastLoaded)
	rr := SimulateDispatch(b, traffic, DispatchRoundRobinIO)

	if single.SyncOps != 0 {
		t.Fatalf("single-WT sync ops = %d, want 0", single.SyncOps)
	}
	if least.CoV >= single.CoV {
		t.Fatalf("least-loaded CoV %v should beat single-WT CoV %v", least.CoV, single.CoV)
	}
	if least.SyncOps == 0 {
		t.Fatal("least-loaded dispatch should pay handoffs")
	}
	if rr.CoV >= single.CoV {
		t.Fatalf("round-robin-IO CoV %v should beat single-WT CoV %v on a hot QP", rr.CoV, single.CoV)
	}
	for _, p := range []DispatchPolicy{DispatchSingleWT, DispatchLeastLoaded, DispatchRoundRobinIO} {
		if p.String() == "unknown" {
			t.Fatalf("policy %d stringifies to unknown", p)
		}
	}
}
