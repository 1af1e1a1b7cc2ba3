// Package cluster models the topology of a disaggregated Elastic Block
// Storage deployment as described in §2.1 of the paper: compute clusters of
// Compute Nodes hosting Virtual Machines that mount Virtual Disks, each disk
// exposing one or more IO Queue Pairs served by per-node Worker Threads; and
// storage clusters of Storage Nodes, each running a BlockServer (and a
// co-located ChunkServer) that manages 32 GiB segments of virtual-disk
// address space.
//
// The topology is a plain in-memory object graph with integer IDs, designed
// to be cheap to traverse during trace-driven simulation. Mutable state that
// evolves during simulation (the segment-to-BlockServer mapping, QP-to-WT
// binding) lives in small dedicated structs so the static topology can be
// shared read-only between concurrent experiments.
package cluster

import "fmt"

// SegmentSize is the fixed size of a virtual-disk address-space segment
// (32 GiB, §2.1). Segments are the unit of inter-BlockServer load balancing.
const SegmentSize int64 = 32 << 30

// MaxQPsPerVD is the maximum number of IO queue pairs a virtual disk may
// expose, matching the paper's "up to 8" (§2.1).
const MaxQPsPerVD = 8

// Typed indices into the Topology's entity slices. IDs are dense and
// zero-based within a single Topology.
type (
	// UserID identifies a tenant.
	UserID int32
	// VMID identifies a virtual machine.
	VMID int32
	// VDID identifies a virtual disk.
	VDID int32
	// QPID identifies an IO queue pair, globally across the topology.
	QPID int32
	// NodeID identifies a compute node.
	NodeID int32
	// StorageNodeID identifies a storage node (equivalently its BlockServer).
	StorageNodeID int32
	// SegmentID identifies one 32 GiB segment of some virtual disk.
	SegmentID int32
	// DCID identifies a data center (one compute + one storage cluster).
	DCID int32
)

// AppClass is the inferred application category of a VM (Appendix D).
type AppClass uint8

// Application categories from Table 5 of the paper.
const (
	AppBigData AppClass = iota
	AppWebApp
	AppMiddleware
	AppFileSystem
	AppDatabase
	AppDocker
	numAppClasses
)

// NumAppClasses is the number of application categories.
const NumAppClasses = int(numAppClasses)

func (a AppClass) String() string {
	switch a {
	case AppBigData:
		return "BigData"
	case AppWebApp:
		return "WebApp"
	case AppMiddleware:
		return "Middleware"
	case AppFileSystem:
		return "FileSystem"
	case AppDatabase:
		return "Database"
	case AppDocker:
		return "Docker"
	}
	return fmt.Sprintf("AppClass(%d)", uint8(a))
}

// ComputeNode is a physical host in the compute cluster.
type ComputeNode struct {
	ID        NodeID
	DC        DCID
	WorkerNum int    // number of polling worker threads (each pinned to a core)
	BareMetal bool   // bare-metal nodes host exactly one VM
	VMs       []VMID // VMs placed on this node
}

// VM is a virtual machine owned by a tenant.
type VM struct {
	ID   VMID
	User UserID
	Node NodeID
	App  AppClass
	VDs  []VDID
}

// VD is a virtual disk mounted by a VM.
type VD struct {
	ID       VDID
	VM       VMID
	Capacity int64 // bytes
	QPs      []QPID
	Segments []SegmentID

	// Subscription caps enforced by the hypervisor throttle (§5).
	ThroughputCap float64 // bytes/s, summed read+write
	IOPSCap       float64 // ops/s, summed read+write
}

// QP is one IO queue pair of a virtual disk.
type QP struct {
	ID QPID
	VD VDID
}

// Segment is one 32 GiB slice of a VD's logical address space.
type Segment struct {
	ID    SegmentID
	VD    VDID
	Index int // position within the VD's address space: offset = Index*SegmentSize
}

// Topology is the static object graph of one or more data centers. All
// slices are indexed by the corresponding ID; storage nodes are numbered
// 0..StorageNodes-1.
type Topology struct {
	DCs          int
	Users        int
	Nodes        []ComputeNode
	VMs          []VM
	VDs          []VD
	QPs          []QP
	Segments     []Segment
	StorageNodes int
}

// NumWTs returns the total number of worker threads across all compute nodes.
func (t *Topology) NumWTs() int {
	var n int
	for i := range t.Nodes {
		n += t.Nodes[i].WorkerNum
	}
	return n
}

// NodeQPs returns all QP IDs hosted on the given compute node, in VD order.
func (t *Topology) NodeQPs(n NodeID) []QPID {
	node := &t.Nodes[n]
	var qps []QPID
	for _, vm := range node.VMs {
		for _, vd := range t.VMs[vm].VDs {
			qps = append(qps, t.VDs[vd].QPs...)
		}
	}
	return qps
}

// VDOfQP returns the virtual disk owning qp.
func (t *Topology) VDOfQP(qp QPID) VDID { return t.QPs[qp].VD }

// VMOfQP returns the virtual machine owning qp.
func (t *Topology) VMOfQP(qp QPID) VMID { return t.VDs[t.QPs[qp].VD].VM }

// NodeOfQP returns the compute node hosting qp.
func (t *Topology) NodeOfQP(qp QPID) NodeID { return t.VMs[t.VMOfQP(qp)].Node }

// SegmentOfOffset returns the segment of vd containing the given byte offset.
// It panics if the offset is outside the disk's capacity.
func (t *Topology) SegmentOfOffset(vd VDID, offset int64) SegmentID {
	d := &t.VDs[vd]
	if offset < 0 || offset >= d.Capacity {
		panic(fmt.Sprintf("cluster: offset %d outside VD %d capacity %d", offset, vd, d.Capacity))
	}
	idx := int(offset / SegmentSize)
	if idx >= len(d.Segments) {
		idx = len(d.Segments) - 1
	}
	return d.Segments[idx]
}

// Validate checks referential integrity of the topology; it is used by tests
// and by generators as a post-condition. It returns the first inconsistency
// found, or nil.
func (t *Topology) Validate() error {
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("node %d has ID %d", i, n.ID)
		}
		if n.WorkerNum <= 0 {
			return fmt.Errorf("node %d has %d worker threads", i, n.WorkerNum)
		}
		if n.BareMetal && len(n.VMs) != 1 {
			return fmt.Errorf("bare-metal node %d hosts %d VMs", i, len(n.VMs))
		}
		for _, vm := range n.VMs {
			if int(vm) >= len(t.VMs) || t.VMs[vm].Node != n.ID {
				return fmt.Errorf("node %d lists VM %d which does not point back", i, vm)
			}
		}
	}
	for i := range t.VMs {
		vm := &t.VMs[i]
		if vm.ID != VMID(i) {
			return fmt.Errorf("vm %d has ID %d", i, vm.ID)
		}
		if int(vm.User) >= t.Users {
			return fmt.Errorf("vm %d references user %d out of %d", i, vm.User, t.Users)
		}
		if len(vm.VDs) == 0 {
			return fmt.Errorf("vm %d has no virtual disks", i)
		}
		for _, vd := range vm.VDs {
			if int(vd) >= len(t.VDs) || t.VDs[vd].VM != vm.ID {
				return fmt.Errorf("vm %d lists VD %d which does not point back", i, vd)
			}
		}
	}
	for i := range t.VDs {
		vd := &t.VDs[i]
		if vd.ID != VDID(i) {
			return fmt.Errorf("vd %d has ID %d", i, vd.ID)
		}
		if len(vd.QPs) == 0 || len(vd.QPs) > MaxQPsPerVD {
			return fmt.Errorf("vd %d has %d QPs", i, len(vd.QPs))
		}
		if vd.Capacity <= 0 {
			return fmt.Errorf("vd %d has capacity %d", i, vd.Capacity)
		}
		wantSegs := int((vd.Capacity + SegmentSize - 1) / SegmentSize)
		if len(vd.Segments) != wantSegs {
			return fmt.Errorf("vd %d has %d segments, want %d for capacity %d",
				i, len(vd.Segments), wantSegs, vd.Capacity)
		}
		for _, qp := range vd.QPs {
			if int(qp) >= len(t.QPs) || t.QPs[qp].VD != vd.ID {
				return fmt.Errorf("vd %d lists QP %d which does not point back", i, qp)
			}
		}
		for j, seg := range vd.Segments {
			if int(seg) >= len(t.Segments) {
				return fmt.Errorf("vd %d references segment %d out of range", i, seg)
			}
			s := &t.Segments[seg]
			if s.VD != vd.ID || s.Index != j {
				return fmt.Errorf("vd %d segment %d does not point back (vd=%d idx=%d)",
					i, seg, s.VD, s.Index)
			}
		}
	}
	for i := range t.QPs {
		if t.QPs[i].ID != QPID(i) {
			return fmt.Errorf("qp %d has ID %d", i, t.QPs[i].ID)
		}
	}
	for i := range t.Segments {
		if t.Segments[i].ID != SegmentID(i) {
			return fmt.Errorf("segment %d has ID %d", i, t.Segments[i].ID)
		}
	}
	return nil
}
