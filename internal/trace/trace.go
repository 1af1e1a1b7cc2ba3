// Package trace defines the two datasets the study is built on (§2.3):
//
//   - the per-IO *trace* dataset, a 1/3200 sample of block IOs annotated with
//     opcode, size, LBA offset, the EBS-stack entities the IO traversed, and
//     its latency across the five major stack components; and
//   - the per-second *metric* dataset, a full-scale (unsampled) statistical
//     aggregation of throughput and IOPS at the QP-WT level (compute domain)
//     and the segment level (storage domain), following Table 1.
//
// The package also defines the supplementary specification dataset (VM/VD
// configuration and inferred application), plus the codecs cmd/ebssim -out
// exports every dataset with. Only the per-IO trace (CSV and JSONL) has a
// reader: replay ingests it; the metric and spec files are write-only.
package trace

import (
	"fmt"

	"ebslab/internal/cluster"
)

// Op is a block IO opcode.
type Op uint8

// The two block IO opcodes.
const (
	OpRead Op = iota
	OpWrite
)

func (o Op) String() string {
	if o == OpRead {
		return "R"
	}
	return "W"
}

// SampleRate is the paper's trace downsampling rate: one out of every 3200
// IOs is traced (§2.3).
const SampleRate = 3200

// Stage indexes the five major EBS-stack components whose latency each trace
// records (§2.3): compute node, frontend network, BlockServer, backend
// network, ChunkServer.
type Stage uint8

// The five latency stages of the EBS stack.
const (
	StageComputeNode Stage = iota
	StageFrontendNet
	StageBlockServer
	StageBackendNet
	StageChunkServer
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageComputeNode:
		return "compute_node"
	case StageFrontendNet:
		return "frontend_net"
	case StageBlockServer:
		return "block_server"
	case StageBackendNet:
		return "backend_net"
	case StageChunkServer:
		return "chunk_server"
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// Record is one traced IO. Times are in microseconds relative to the start
// of the observation window; latencies are in microseconds per stage.
type Record struct {
	TraceID uint64
	TimeUS  int64
	Op      Op
	Size    int32 // bytes
	Offset  int64 // byte offset into the VD's logical address space

	// Stack path (§2.3 "EBS stack-related information").
	DC      cluster.DCID
	Node    cluster.NodeID
	User    cluster.UserID
	VM      cluster.VMID
	VD      cluster.VDID
	QP      cluster.QPID
	WT      int8 // worker-thread index within the compute node
	Storage cluster.StorageNodeID
	Segment cluster.SegmentID

	// Latency per stage, microseconds.
	Latency [NumStages]float32
}

// TotalLatency returns the end-to-end latency of the IO in microseconds.
func (r *Record) TotalLatency() float64 {
	var t float64
	for _, l := range r.Latency {
		t += float64(l)
	}
	return t
}

// Domain distinguishes the two metric sub-datasets of Table 1.
type Domain uint8

// Metric domains.
const (
	DomainCompute Domain = iota
	DomainStorage
)

func (d Domain) String() string {
	if d == DomainCompute {
		return "compute"
	}
	return "storage"
}

// MetricRow is one row of the metric dataset (Table 1): a one-second
// statistical aggregate of all (not downsampled) IOs at either the QP-WT
// level (compute domain) or the segment level (storage domain). The slash
// convention of Table 1 maps to the explicit Read*/Write* fields.
type MetricRow struct {
	Domain Domain
	Sec    int32 // second index within the observation window
	DC     cluster.DCID

	// User information.
	User cluster.UserID
	VM   cluster.VMID
	VD   cluster.VDID

	// Record unit: compute domain fills QP and WT (and Node); storage domain
	// fills Segment and Storage.
	Node    cluster.NodeID
	QP      cluster.QPID
	WT      int8
	Storage cluster.StorageNodeID
	Segment cluster.SegmentID

	// Metrics: throughput in bytes/s and IOPS in ops/s.
	ReadBps   float64
	WriteBps  float64
	ReadIOPS  float64
	WriteIOPS float64
}

// Bps returns the summed read+write throughput of the row.
func (m *MetricRow) Bps() float64 { return m.ReadBps + m.WriteBps }

// IOPS returns the summed read+write IOPS of the row.
func (m *MetricRow) IOPS() float64 { return m.ReadIOPS + m.WriteIOPS }

// VDSpec is the subscription-level specification of a virtual disk (§2.3
// "specification data").
type VDSpec struct {
	VD            cluster.VDID
	Capacity      int64   // bytes
	ThroughputCap float64 // bytes/s (read+write aggregated, §5.2)
	IOPSCap       float64 // ops/s (read+write aggregated)
	NumQPs        int
}

// VMSpec records a VM's configuration and its inferred application.
type VMSpec struct {
	VM   cluster.VMID
	Node cluster.NodeID
	App  cluster.AppClass
	VDs  []cluster.VDID
}

// Dataset bundles everything a study run consumes: the static topology, the
// sampled IO trace, the full-scale metric rows, and the specification data.
type Dataset struct {
	Topology *cluster.Topology
	Seg2BS   *cluster.SegmentMap

	// DurationSec is the length of the observation window in seconds.
	DurationSec int

	Trace   []Record
	Compute []MetricRow // compute-domain metric rows
	Storage []MetricRow // storage-domain metric rows

	VDSpecs []VDSpec
	VMSpecs []VMSpec
}
