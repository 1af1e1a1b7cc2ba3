package core

import (
	"fmt"
	"sort"
	"strings"

	"ebslab/internal/cluster"
	"ebslab/internal/stats"
)

// Table2Result is the dataset high-level summary (Table 2).
type Table2Result struct {
	Users, VMs, VDs        int
	MedianVMsPerUser       float64
	MaxVMsPerUser          int
	MedianVDsPerUser       float64
	MaxVDsPerUser          int
	TotalWriteGiB          float64
	TotalReadGiB           float64
	EstWriteTraceM         float64 // traced (1/3200-sampled) writes, millions
	EstReadTraceM          float64
	DurationSec, Nodes, BS int
}

// Table2Summary computes the Table 2 counterpart for the synthetic fleet.
func (s *Study) Table2Summary() Table2Result {
	t := s.ensureTotals()
	top := s.Fleet.Topology
	res := Table2Result{
		Users: top.Users, VMs: len(top.VMs), VDs: len(top.VDs),
		DurationSec: s.Dur, Nodes: len(top.Nodes), BS: top.StorageNodes,
	}
	vmPerUser := make([]float64, top.Users)
	vdPerUser := make([]float64, top.Users)
	for i := range top.VMs {
		vmPerUser[top.VMs[i].User]++
		vdPerUser[top.VMs[i].User] += float64(len(top.VMs[i].VDs))
	}
	res.MedianVMsPerUser = stats.Median(vmPerUser)
	res.MaxVMsPerUser = int(stats.Max(vmPerUser))
	res.MedianVDsPerUser = stats.Median(vdPerUser)
	res.MaxVDsPerUser = int(stats.Max(vdPerUser))

	var rBytes, wBytes, rOps, wOps float64
	for vd := range top.VDs {
		rBytes += t.vdRead[vd]
		wBytes += t.vdWrite[vd]
		m := &s.Fleet.Models[vd]
		rOps += t.vdRead[vd] / m.ReadIOSize
		wOps += t.vdWrite[vd] / m.WriteIOSize
	}
	res.TotalReadGiB = rBytes / float64(1<<30)
	res.TotalWriteGiB = wBytes / float64(1<<30)
	res.EstReadTraceM = rOps / 3200 / 1e6
	res.EstWriteTraceM = wOps / 3200 / 1e6
	return res
}

// Render prints the summary as a two-column table.
func (r Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: dataset summary (%ds window)\n", r.DurationSec)
	rows := [][2]string{
		{"users / VMs / VDs", fmt.Sprintf("%d / %d / %d", r.Users, r.VMs, r.VDs)},
		{"compute nodes / BlockServers", fmt.Sprintf("%d / %d", r.Nodes, r.BS)},
		{"median / max VMs per user", fmt.Sprintf("%.0f / %d", r.MedianVMsPerUser, r.MaxVMsPerUser)},
		{"median / max VDs per user", fmt.Sprintf("%.0f / %d", r.MedianVDsPerUser, r.MaxVDsPerUser)},
		{"total write / read traffic (GiB)", fmt.Sprintf("%.1f / %.1f", r.TotalWriteGiB, r.TotalReadGiB)},
		{"est. write / read traces (millions)", fmt.Sprintf("%.3f / %.3f", r.EstWriteTraceM, r.EstReadTraceM)},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "  %-38s %s\n", row[0], row[1])
	}
	return b.String()
}

// LevelStats is one cell group of Table 3: read/write CCRs and median P2A at
// one aggregation level in one DC.
type LevelStats struct {
	Level               string
	CCR1Read, CCR1Write float64 // 1%-CCR, percent
	CCR20Read, CCR20Wr  float64 // 20%-CCR, percent
	P2AMedR, P2AMedW    float64 // 50%ile P2A
	Entities            int
}

// Table3Result is the baseline statistics of Table 3: per DC, stats at the
// CN / VM / SN / Seg aggregation levels.
type Table3Result struct {
	DCs []DCBaseline
}

// DCBaseline is one DC's column group.
type DCBaseline struct {
	DC     cluster.DCID
	Levels []LevelStats // CN, VM, SN, Seg
}

// Table3Baseline computes spatial (CCR) and temporal (P2A) skewness at the
// compute-node, VM, storage-node, and segment levels for every DC.
func (s *Study) Table3Baseline() Table3Result {
	t := s.ensureTotals()
	top := s.Fleet.Topology
	var res Table3Result

	for dc := 0; dc < top.DCs; dc++ {
		dcID := cluster.DCID(dc)
		// Aggregated per-entity series for CN, VM, SN (P2A needs series).
		cnSeries := map[cluster.NodeID]*rwSeries{}
		vmSeries := map[cluster.VMID]*rwSeries{}
		snSeries := map[cluster.StorageNodeID]*rwSeries{}

		var segR, segW, segP2AR, segP2AW []float64

		for vdIdx := range top.VDs {
			vd := &top.VDs[vdIdx]
			vm := &top.VMs[vd.VM]
			node := &top.Nodes[vm.Node]
			if node.DC != dcID {
				continue
			}
			m := &s.Fleet.Models[vdIdx]
			series := s.Fleet.VDSeries(cluster.VDID(vdIdx), s.Dur)

			cn := getAgg(cnSeries, node.ID, s.Dur)
			vma := getAgg(vmSeries, vm.ID, s.Dur)
			for i, smp := range series {
				cn.r[i] += smp.ReadBps
				cn.w[i] += smp.WriteBps
				vma.r[i] += smp.ReadBps
				vma.w[i] += smp.WriteBps
			}
			for segPos, seg := range vd.Segments {
				sn := getAgg(snSeries, s.Fleet.Seg2BS.BSOf(seg), s.Dur)
				rw, ww := m.SegWeightsRead[segPos], m.SegWeightsWrite[segPos]
				for i, smp := range series {
					sn.r[i] += smp.ReadBps * rw
					sn.w[i] += smp.WriteBps * ww
				}
				segR = append(segR, t.segRead[seg])
				segW = append(segW, t.segWrite[seg])
				// A segment's series is its VD's series scaled per
				// direction, so its P2A equals the VD's.
				segP2AR = append(segP2AR, t.vdP2AR[vdIdx])
				segP2AW = append(segP2AW, t.vdP2AW[vdIdx])
			}
		}

		base := DCBaseline{DC: dcID}
		base.Levels = append(base.Levels, levelFromAggs("CN", cnSeries))
		base.Levels = append(base.Levels, levelFromAggs("VM", vmSeries))
		base.Levels = append(base.Levels, levelFromAggs("SN", snSeries))
		base.Levels = append(base.Levels, LevelStats{
			Level:     "Seg",
			CCR1Read:  100 * stats.CCR(segR, 0.01),
			CCR1Write: 100 * stats.CCR(segW, 0.01),
			CCR20Read: 100 * stats.CCR(segR, 0.20),
			CCR20Wr:   100 * stats.CCR(segW, 0.20),
			P2AMedR:   stats.Median(stats.DropNaN(segP2AR)),
			P2AMedW:   stats.Median(stats.DropNaN(segP2AW)),
			Entities:  len(segR),
		})
		res.DCs = append(res.DCs, base)
	}
	return res
}

// rwSeries is a per-entity pair of read/write time series.
type rwSeries struct{ r, w []float64 }

func getAgg[K comparable](m map[K]*rwSeries, k K, dur int) *rwSeries {
	a, ok := m[k]
	if !ok {
		a = &rwSeries{r: make([]float64, dur), w: make([]float64, dur)}
		m[k] = a
	}
	return a
}

func levelFromAggs[K comparable](name string, m map[K]*rwSeries) LevelStats {
	var totR, totW, p2aR, p2aW []float64
	for _, a := range m {
		totR = append(totR, stats.Sum(a.r))
		totW = append(totW, stats.Sum(a.w))
		p2aR = append(p2aR, stats.P2A(a.r))
		p2aW = append(p2aW, stats.P2A(a.w))
	}
	return LevelStats{
		Level:     name,
		CCR1Read:  100 * stats.CCR(totR, 0.01),
		CCR1Write: 100 * stats.CCR(totW, 0.01),
		CCR20Read: 100 * stats.CCR(totR, 0.20),
		CCR20Wr:   100 * stats.CCR(totW, 0.20),
		P2AMedR:   stats.Median(stats.DropNaN(p2aR)),
		P2AMedW:   stats.Median(stats.DropNaN(p2aW)),
		Entities:  len(m),
	}
}

// Render prints Table 3 in the paper's layout (read/write separated by '/').
func (r Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: baseline statistics (values read / write)\n")
	fmt.Fprintf(&b, "  %-6s %-5s %-15s %-15s %-21s %s\n", "DC", "Level", "1%-CCR", "20%-CCR", "50%ile P2A", "n")
	for _, dc := range r.DCs {
		for _, lv := range dc.Levels {
			fmt.Fprintf(&b, "  DC-%-3d %-5s %6.1f / %6.1f %6.1f / %6.1f %9.1f / %9.1f %d\n",
				dc.DC+1, lv.Level,
				lv.CCR1Read, lv.CCR1Write,
				lv.CCR20Read, lv.CCR20Wr,
				lv.P2AMedR, lv.P2AMedW, lv.Entities)
		}
	}
	return b.String()
}

// AppRow is one row of Table 4.
type AppRow struct {
	App                 cluster.AppClass
	CCR1Read, CCR1Write float64 // percent, VM level within the class
	CCR20Read, CCR20Wr  float64
	ShareRead, ShareWr  float64 // percent of fleet traffic
	VMs                 int
}

// Table4Result is the per-application skewness analysis of Table 4.
type Table4Result struct {
	Rows []AppRow
}

// Table4ByApp groups VM traffic by inferred application class.
func (s *Study) Table4ByApp() Table4Result {
	t := s.ensureTotals()
	top := s.Fleet.Topology
	byApp := make(map[cluster.AppClass]*struct{ r, w []float64 })
	var totR, totW float64
	for i := range top.VMs {
		app := top.VMs[i].App
		a, ok := byApp[app]
		if !ok {
			a = &struct{ r, w []float64 }{}
			byApp[app] = a
		}
		a.r = append(a.r, t.vmRead[i])
		a.w = append(a.w, t.vmWrite[i])
		totR += t.vmRead[i]
		totW += t.vmWrite[i]
	}
	var res Table4Result
	for app, a := range byApp {
		res.Rows = append(res.Rows, AppRow{
			App:       app,
			CCR1Read:  100 * stats.CCR(a.r, 0.01),
			CCR1Write: 100 * stats.CCR(a.w, 0.01),
			CCR20Read: 100 * stats.CCR(a.r, 0.20),
			CCR20Wr:   100 * stats.CCR(a.w, 0.20),
			ShareRead: 100 * stats.Sum(a.r) / totR,
			ShareWr:   100 * stats.Sum(a.w) / totW,
			VMs:       len(a.r),
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].CCR1Read < res.Rows[j].CCR1Read })
	return res
}

// Render prints Table 4.
func (r Table4Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 4: skewness by application type (read / write)\n")
	fmt.Fprintf(&b, "  %-11s %-15s %-15s %-15s %s\n", "App", "1%-CCR", "20%-CCR", "share (%)", "VMs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-11s %6.1f / %6.1f %6.1f / %6.1f %6.1f / %6.1f %d\n",
			row.App, row.CCR1Read, row.CCR1Write,
			row.CCR20Read, row.CCR20Wr, row.ShareRead, row.ShareWr, row.VMs)
	}
	return b.String()
}
