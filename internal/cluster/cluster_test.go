package cluster

import (
	"testing"
)

// tinyTopology builds a hand-wired 2-node, 2-VM, 3-VD topology used across
// the package tests.
func tinyTopology(t *testing.T) *Topology {
	t.Helper()
	top := &Topology{DCs: 1, Users: 2}
	top.Nodes = []ComputeNode{
		{ID: 0, DC: 0, WorkerNum: 4, VMs: []VMID{0}},
		{ID: 1, DC: 0, WorkerNum: 2, BareMetal: true, VMs: []VMID{1}},
	}
	top.VMs = []VM{
		{ID: 0, User: 0, Node: 0, App: AppDatabase, VDs: []VDID{0, 1}},
		{ID: 1, User: 1, Node: 1, App: AppBigData, VDs: []VDID{2}},
	}
	// VD 0: 64 GiB => 2 segments; VD 1: 40 GiB => 2 segments; VD 2: 32 GiB => 1.
	top.VDs = []VD{
		{ID: 0, VM: 0, Capacity: 64 << 30, QPs: []QPID{0, 1}, Segments: []SegmentID{0, 1}},
		{ID: 1, VM: 0, Capacity: 40 << 30, QPs: []QPID{2}, Segments: []SegmentID{2, 3}},
		{ID: 2, VM: 1, Capacity: 32 << 30, QPs: []QPID{3}, Segments: []SegmentID{4}},
	}
	top.QPs = []QP{
		{ID: 0, VD: 0}, {ID: 1, VD: 0}, {ID: 2, VD: 1}, {ID: 3, VD: 2},
	}
	top.Segments = []Segment{
		{ID: 0, VD: 0, Index: 0}, {ID: 1, VD: 0, Index: 1},
		{ID: 2, VD: 1, Index: 0}, {ID: 3, VD: 1, Index: 1},
		{ID: 4, VD: 2, Index: 0},
	}
	top.StorageNodes = 3
	if err := top.Validate(); err != nil {
		t.Fatalf("tiny topology invalid: %v", err)
	}
	return top
}

func TestValidateCatchesBrokenBackPointers(t *testing.T) {
	top := tinyTopology(t)
	top.VDs[0].VM = 1 // break VD->VM back pointer
	if err := top.Validate(); err == nil {
		t.Fatal("Validate accepted a VD that does not point back to its VM")
	}
}

func TestValidateCatchesBadSegmentCount(t *testing.T) {
	top := tinyTopology(t)
	top.VDs[2].Capacity = 100 << 30 // capacity now requires 4 segments, has 1
	if err := top.Validate(); err == nil {
		t.Fatal("Validate accepted mismatched segment count")
	}
}

func TestValidateCatchesBareMetalMultiVM(t *testing.T) {
	top := tinyTopology(t)
	top.Nodes[1].VMs = append(top.Nodes[1].VMs, 0)
	if err := top.Validate(); err == nil {
		t.Fatal("Validate accepted a bare-metal node with two VMs")
	}
}

func TestNodeQPs(t *testing.T) {
	top := tinyTopology(t)
	qps := top.NodeQPs(0)
	if len(qps) != 3 {
		t.Fatalf("NodeQPs(0) = %v, want 3 QPs", qps)
	}
	if qps[0] != 0 || qps[1] != 1 || qps[2] != 2 {
		t.Fatalf("NodeQPs(0) = %v, want [0 1 2]", qps)
	}
	if got := top.NodeQPs(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("NodeQPs(1) = %v, want [3]", got)
	}
}

func TestEntityNavigation(t *testing.T) {
	top := tinyTopology(t)
	if top.VDOfQP(2) != 1 {
		t.Fatalf("VDOfQP(2) = %d, want 1", top.VDOfQP(2))
	}
	if top.VMOfQP(3) != 1 {
		t.Fatalf("VMOfQP(3) = %d, want 1", top.VMOfQP(3))
	}
	if top.NodeOfQP(0) != 0 {
		t.Fatalf("NodeOfQP(0) = %d, want 0", top.NodeOfQP(0))
	}
	if top.NumWTs() != 6 {
		t.Fatalf("NumWTs = %d, want 6", top.NumWTs())
	}
}

func TestSegmentOfOffset(t *testing.T) {
	top := tinyTopology(t)
	if got := top.SegmentOfOffset(0, 0); got != 0 {
		t.Fatalf("SegmentOfOffset(vd0, 0) = %d, want 0", got)
	}
	if got := top.SegmentOfOffset(0, SegmentSize); got != 1 {
		t.Fatalf("SegmentOfOffset(vd0, 32GiB) = %d, want 1", got)
	}
	// VD 1 is 40 GiB: offset 39 GiB is in the (short) second segment.
	if got := top.SegmentOfOffset(1, 39<<30); got != 3 {
		t.Fatalf("SegmentOfOffset(vd1, 39GiB) = %d, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SegmentOfOffset out of capacity should panic")
		}
	}()
	top.SegmentOfOffset(2, 33<<30)
}

func TestAppClassString(t *testing.T) {
	names := map[AppClass]string{
		AppBigData: "BigData", AppWebApp: "WebApp", AppMiddleware: "Middleware",
		AppFileSystem: "FileSystem", AppDatabase: "Database", AppDocker: "Docker",
	}
	for app, want := range names {
		if got := app.String(); got != want {
			t.Errorf("AppClass(%d).String() = %q, want %q", app, got, want)
		}
	}
	if got := AppClass(99).String(); got != "AppClass(99)" {
		t.Errorf("unknown AppClass string = %q", got)
	}
	if NumAppClasses != 6 {
		t.Errorf("NumAppClasses = %d, want 6", NumAppClasses)
	}
}

func TestSegmentMapBasics(t *testing.T) {
	m := NewSegmentMap(5, 3)
	if m.Len() != 5 || m.NumBS() != 3 {
		t.Fatalf("Len/NumBS = %d/%d", m.Len(), m.NumBS())
	}
	if m.BSOf(2) != -1 {
		t.Fatal("fresh map should be unassigned")
	}
	m.Assign(2, 1)
	if m.BSOf(2) != 1 {
		t.Fatalf("BSOf(2) = %d, want 1", m.BSOf(2))
	}
	if prev := m.Move(2, 0); prev != 1 {
		t.Fatalf("Move returned prev %d, want 1", prev)
	}
	if got := m.SegmentsOn(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("SegmentsOn(0) = %v", got)
	}
	if got := m.SegmentsOn(1); len(got) != 0 {
		t.Fatalf("SegmentsOn(1) = %v after the move", got)
	}
}

func TestSegmentMapCloneIsDeep(t *testing.T) {
	m := NewSegmentMap(3, 2)
	m.Assign(0, 0)
	c := m.Clone()
	c.Assign(0, 1)
	if m.BSOf(0) != 0 {
		t.Fatal("Clone is not deep")
	}
}

func TestSegmentMapAssignPanicsOnBadBS(t *testing.T) {
	m := NewSegmentMap(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Assign to out-of-range BS should panic")
		}
	}()
	m.Assign(0, 5)
}
