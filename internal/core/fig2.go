package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ebslab/internal/cluster"
	"ebslab/internal/hypervisor"
	"ebslab/internal/report"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
)

// Fig2aResult holds the WT-CoV distributions of Figure 2(a) at several time
// scales.
type Fig2aResult struct {
	ScalesSec []int
	// MedianRead[i] / MedianWrite[i] are the median WT-CoV across nodes at
	// ScalesSec[i]; P90* are the 90th percentiles.
	MedianRead, MedianWrite []float64
	P90Read, P90Write       []float64
}

// Fig2aWTCoV measures per-node worker-thread CoV under the round-robin
// binding at multiple time scales. The paper uses 1/30/60-minute scales over
// a 12 h window; scaled to our window they are 30 s / 2 min / 5 min.
func (s *Study) Fig2aWTCoV() Fig2aResult {
	scalesSec := []int{30, 120, 300}
	top := s.Fleet.Topology
	res := Fig2aResult{ScalesSec: scalesSec}

	// Per-node per-WT second series, built by streaming VDs once.
	type wtAgg struct{ r, w [][]float64 } // [wt][sec]
	nodeWT := make([]wtAgg, len(top.Nodes))
	for n := range top.Nodes {
		k := top.Nodes[n].WorkerNum
		nodeWT[n] = wtAgg{r: alloc2(k, s.Dur), w: alloc2(k, s.Dur)}
	}
	bindings := make([]*hypervisor.Binding, len(top.Nodes))
	qpWT := make(map[cluster.QPID]int8)
	for n := range top.Nodes {
		bindings[n] = hypervisor.RoundRobin(top, cluster.NodeID(n))
		for i, qp := range bindings[n].QPs {
			qpWT[qp] = bindings[n].WTOf[i]
		}
	}
	for vdIdx := range top.VDs {
		vd := &top.VDs[vdIdx]
		node := top.VMs[vd.VM].Node
		m := &s.Fleet.Models[vdIdx]
		series := s.Fleet.VDSeries(cluster.VDID(vdIdx), s.Dur)
		for i, qp := range vd.QPs {
			wt := qpWT[qp]
			rw, ww := m.QPWeightsRead[i], m.QPWeightsWrite[i]
			for t, smp := range series {
				nodeWT[node].r[wt][t] += smp.ReadBps * rw
				nodeWT[node].w[wt][t] += smp.WriteBps * ww
			}
		}
	}

	for _, scale := range scalesSec {
		var covR, covW []float64
		for n := range top.Nodes {
			k := top.Nodes[n].WorkerNum
			for start := 0; start+scale <= s.Dur; start += scale {
				wr := make([]float64, k)
				wwv := make([]float64, k)
				for wt := 0; wt < k; wt++ {
					for t := start; t < start+scale; t++ {
						wr[wt] += nodeWT[n].r[wt][t]
						wwv[wt] += nodeWT[n].w[wt][t]
					}
				}
				if c := stats.NormCoV(wr); !math.IsNaN(c) {
					covR = append(covR, c)
				}
				if c := stats.NormCoV(wwv); !math.IsNaN(c) {
					covW = append(covW, c)
				}
			}
		}
		res.MedianRead = append(res.MedianRead, stats.Median(covR))
		res.MedianWrite = append(res.MedianWrite, stats.Median(covW))
		res.P90Read = append(res.P90Read, stats.Quantile(covR, 0.9))
		res.P90Write = append(res.P90Write, stats.Quantile(covW, 0.9))
	}
	return res
}

func alloc2(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	backing := make([]float64, rows*cols)
	for i := range out {
		out[i], backing = backing[:cols:cols], backing[cols:]
	}
	return out
}

// Render prints Fig 2(a).
func (r Fig2aResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2(a): WT-CoV by time scale (read / write)\n")
	for i, sc := range r.ScalesSec {
		fmt.Fprintf(&b, "  %4ds scale: median %.2f / %.2f   p90 %.2f / %.2f\n",
			sc, r.MedianRead[i], r.MedianWrite[i], r.P90Read[i], r.P90Write[i])
	}
	return b.String()
}

// Fig2bResult holds the three-tier CoV medians of Figure 2(b) plus the node
// taxonomy shares of §4.2.
type Fig2bResult struct {
	// Median CoVs for read / write at each tier.
	VM2QPRead, VM2QPWrite float64
	VM2VDRead, VM2VDWrite float64
	VD2QPRead, VD2QPWrite float64
	// Node type shares (of nodes with traffic), percent.
	TypeIPct, TypeIIPct, TypeIIIPct float64
	// Average traffic share of the hottest VM (read / write), percent.
	HotVMShareRead, HotVMShareWrite float64
}

// Fig2bThreeTier measures the VM-QP / VM-VD / VD-QP CoV hierarchy and
// classifies every node into the Type I/II/III taxonomy.
func (s *Study) Fig2bThreeTier() Fig2bResult {
	top := s.Fleet.Topology
	var res Fig2bResult
	var vm2qpR, vm2qpW, vm2vdR, vm2vdW, vd2qpR, vd2qpW []float64
	var nI, nII, nIII int
	var hotShareR, hotShareW []float64

	for n := range top.Nodes {
		nodeID := cluster.NodeID(n)
		readT := s.nodeQPTraffic(nodeID, dirRead)
		writeT := s.nodeQPTraffic(nodeID, dirWrite)
		both := make([]float64, len(readT))
		for i := range both {
			both[i] = readT[i] + writeT[i]
		}
		typ, _ := hypervisor.Classify(top, nodeID, both)
		switch typ {
		case hypervisor.TypeIdle:
			nI++
		case hypervisor.TypeSingleQP:
			nII++
		case hypervisor.TypeMultiQP:
			nIII++
		}
		mr := hypervisor.MeasureThreeTier(top, nodeID, readT)
		mw := hypervisor.MeasureThreeTier(top, nodeID, writeT)
		vm2qpR = appendNotNaN(vm2qpR, mr.VM2QP)
		vm2qpW = appendNotNaN(vm2qpW, mw.VM2QP)
		vm2vdR = appendNotNaN(vm2vdR, mr.VM2VD)
		vm2vdW = appendNotNaN(vm2vdW, mw.VM2VD)
		vd2qpR = appendNotNaN(vd2qpR, mr.VD2QP)
		vd2qpW = appendNotNaN(vd2qpW, mw.VD2QP)

		// Hottest VM share.
		if hr := hottestVMShare(top, nodeID, readT); !math.IsNaN(hr) {
			hotShareR = append(hotShareR, hr)
		}
		if hw := hottestVMShare(top, nodeID, writeT); !math.IsNaN(hw) {
			hotShareW = append(hotShareW, hw)
		}
	}
	total := float64(nI + nII + nIII)
	if total > 0 {
		res.TypeIPct = 100 * float64(nI) / total
		res.TypeIIPct = 100 * float64(nII) / total
		res.TypeIIIPct = 100 * float64(nIII) / total
	}
	res.VM2QPRead, res.VM2QPWrite = stats.Median(vm2qpR), stats.Median(vm2qpW)
	res.VM2VDRead, res.VM2VDWrite = stats.Median(vm2vdR), stats.Median(vm2vdW)
	res.VD2QPRead, res.VD2QPWrite = stats.Median(vd2qpR), stats.Median(vd2qpW)
	res.HotVMShareRead = 100 * stats.Mean(hotShareR)
	res.HotVMShareWrite = 100 * stats.Mean(hotShareW)
	return res
}

func appendNotNaN(xs []float64, v float64) []float64 {
	if math.IsNaN(v) {
		return xs
	}
	return append(xs, v)
}

// hottestVMShare returns the fraction of node traffic from its hottest VM.
func hottestVMShare(top *cluster.Topology, node cluster.NodeID, qpTraffic []float64) float64 {
	qps := top.NodeQPs(node)
	perVM := map[cluster.VMID]float64{}
	var total float64
	for i, qp := range qps {
		perVM[top.VMOfQP(qp)] += qpTraffic[i]
		total += qpTraffic[i]
	}
	if total == 0 {
		return math.NaN()
	}
	var best float64
	for _, v := range perVM {
		if v > best {
			best = v
		}
	}
	return best / total
}

// Render prints Fig 2(b).
func (r Fig2bResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2(b): three-tier CoV medians (read / write)\n")
	fmt.Fprintf(&b, "  VM->QP CoV: %.2f / %.2f\n", r.VM2QPRead, r.VM2QPWrite)
	fmt.Fprintf(&b, "  VM->VD CoV: %.2f / %.2f\n", r.VM2VDRead, r.VM2VDWrite)
	fmt.Fprintf(&b, "  VD->QP CoV: %.2f / %.2f\n", r.VD2QPRead, r.VD2QPWrite)
	fmt.Fprintf(&b, "  node types: I %.1f%%  II %.1f%%  III %.1f%%\n", r.TypeIPct, r.TypeIIPct, r.TypeIIIPct)
	fmt.Fprintf(&b, "  hottest-VM share: %.1f%% / %.1f%%\n", r.HotVMShareRead, r.HotVMShareWrite)
	return b.String()
}

// Fig2cResult is the hottest-QP traffic-share CDF summary of Figure 2(c).
type Fig2cResult struct {
	// FracAbove80Read/Write is the fraction of nodes whose hottest QP
	// carries more than 80% of the node's traffic.
	FracAbove80Read, FracAbove80Write float64
	MedianRead, MedianWrite           float64
	SharesRead, SharesWrite           []float64 // per-node, for CDFs
}

// Fig2cHottestQP measures the per-node share of the hottest queue pair.
func (s *Study) Fig2cHottestQP() Fig2cResult {
	top := s.Fleet.Topology
	var res Fig2cResult
	for n := range top.Nodes {
		for _, dir := range []direction{dirRead, dirWrite} {
			tr := s.nodeQPTraffic(cluster.NodeID(n), dir)
			total := stats.Sum(tr)
			if total == 0 {
				continue
			}
			share := stats.Max(tr) / total
			if dir == dirRead {
				res.SharesRead = append(res.SharesRead, share)
			} else {
				res.SharesWrite = append(res.SharesWrite, share)
			}
		}
	}
	res.FracAbove80Read = stats.FractionWhere(res.SharesRead, func(x float64) bool { return x > 0.8 })
	res.FracAbove80Write = stats.FractionWhere(res.SharesWrite, func(x float64) bool { return x > 0.8 })
	res.MedianRead = stats.Median(res.SharesRead)
	res.MedianWrite = stats.Median(res.SharesWrite)
	return res
}

// Render prints Fig 2(c).
func (r Fig2cResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2(c): hottest-QP traffic share\n")
	fmt.Fprintf(&b, "  nodes with share > 80%%: read %.1f%%, write %.1f%%\n",
		100*r.FracAbove80Read, 100*r.FracAbove80Write)
	fmt.Fprintf(&b, "  median share: read %.1f%%, write %.1f%%\n",
		100*r.MedianRead, 100*r.MedianWrite)
	return b.String()
}

// Fig2dResult is the rebinding simulation of Figure 2(d).
type Fig2dResult struct {
	Points []hypervisor.RebindResult
	// FracImproved is the fraction of simulated nodes with gain < 1.
	FracImproved float64
	// MedianGain and MedianRatio summarize the scatter.
	MedianGain, MedianRatio float64
}

// The §4.3/§4.4 hypervisor simulations replay the sampled trace in 10 ms
// slots. rebindSampleEvery is the sampling: the paper runs them on its
// 1/3200-sampled trace; our fleet moves roughly 40x less traffic per node, so
// 1/800 preserves the per-node sampled-event density the paper's simulation
// saw (and with it the fraction of nodes rebinding can actually help).
const (
	rebindSampleEvery = trace.SampleRate / 4
	rebindSlotsPerSec = 100
)

// Fig2dRebinding simulates periodic QP-to-WT rebinding (10 ms by default) on
// the busiest multi-QP nodes. Exactly like the paper's §4.3 simulation, the
// input is the *sampled* trace: per-10 ms traffic is a sparse spike train,
// which is what makes periodic rebinding mostly chase bursts it has already
// missed. RebindOptions.Config is the rebinding-period ablation's knob.
func (s *Study) Fig2dRebinding(opt RebindOptions) Fig2dResult {
	mustOpt(opt.Validate())
	maxNodes, winSec, cfg := opt.MaxNodes, opt.WinSec, opt.Config
	if maxNodes <= 0 {
		maxNodes = 60
	}
	if winSec <= 0 {
		winSec = 30
	}
	if cfg == (hypervisor.RebindConfig{}) {
		cfg = hypervisor.DefaultRebindConfig()
	}
	var res Fig2dResult
	var gains, ratios []float64
	s.eachBusyNode(maxNodes, winSec, func(binding *hypervisor.Binding, slot [][]float64) {
		r := hypervisor.SimulateRebinding(binding, slot, cfg)
		if math.IsNaN(r.Gain) {
			return
		}
		res.Points = append(res.Points, r)
		gains = append(gains, r.Gain)
		ratios = append(ratios, r.Ratio)
	})
	res.FracImproved = stats.FractionWhere(gains, func(x float64) bool { return x < 0.999 })
	res.MedianGain = stats.Median(gains)
	res.MedianRatio = stats.Median(ratios)
	return res
}

// eachBusyNode hands each of the k busiest nodes, busiest first, to fn: its
// round-robin QP-to-WT binding and its [qp][slot] traffic over winSec
// seconds — the input of every hypervisor simulation.
func (s *Study) eachBusyNode(k, winSec int, fn func(binding *hypervisor.Binding, slot [][]float64)) {
	for _, n := range s.busiestNodes(k) {
		fn(hypervisor.RoundRobin(s.Fleet.Topology, n), s.nodeSampledSlotTraffic(n, winSec))
	}
}

// nodeSampledSlotTraffic builds [qp][slot] traffic from the node's sampled
// IO events (bytes per slot), mirroring the paper's trace-driven setup.
func (s *Study) nodeSampledSlotTraffic(n cluster.NodeID, winSec int) [][]float64 {
	top := s.Fleet.Topology
	qps := top.NodeQPs(n)
	idx := make(map[cluster.QPID]int, len(qps))
	for i, qp := range qps {
		idx[qp] = i
	}
	nSlots := winSec * rebindSlotsPerSec
	out := alloc2(len(qps), nSlots)
	seen := map[cluster.VDID]bool{}
	const slotUS = 1_000_000 / rebindSlotsPerSec
	for _, qp := range qps {
		vd := top.VDOfQP(qp)
		if seen[vd] {
			continue
		}
		seen[vd] = true
		s.Fleet.GenEvents(vd, winSec, rebindSampleEvery, func(ev workloadEvent) {
			slot := ev.TimeUS / slotUS
			if slot >= int64(nSlots) {
				slot = int64(nSlots) - 1
			}
			out[idx[ev.QP]][slot] += float64(ev.Size)
		})
	}
	return out
}

// busiestNodes returns up to k node IDs ranked by total traffic.
func (s *Study) busiestNodes(k int) []cluster.NodeID {
	top := s.Fleet.Topology
	type nt struct {
		n cluster.NodeID
		v float64
	}
	var all []nt
	for n := range top.Nodes {
		tr := s.nodeQPTraffic(cluster.NodeID(n), dirBoth)
		if len(tr) < 2 {
			continue
		}
		all = append(all, nt{cluster.NodeID(n), stats.Sum(tr)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	if len(all) > k {
		all = all[:k]
	}
	out := make([]cluster.NodeID, len(all))
	for i, x := range all {
		out[i] = x.n
	}
	return out
}

// Render prints Fig 2(d).
func (r Fig2dResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2(d): 10ms rebinding simulation\n")
	fmt.Fprintf(&b, "  nodes simulated: %d\n", len(r.Points))
	fmt.Fprintf(&b, "  nodes improved (gain < 1): %.1f%%\n", 100*r.FracImproved)
	fmt.Fprintf(&b, "  median gain %.2f, median rebinding ratio %.2f\n", r.MedianGain, r.MedianRatio)
	return b.String()
}

// Fig2efResult contrasts a burst-heavy node (node-b) and a calmer node
// (node-r), Figure 2(e)/(f).
type Fig2efResult struct {
	BurstyP2A, CalmP2A   float64
	BurstyGain, CalmGain float64
	// HottestWTSeries are the 10 ms series of each node's hottest WT.
	BurstySeries, CalmSeries []float64
}

// Fig2efBurstSeries reruns the rebinding study and picks the node whose
// hottest-WT 10 ms series has the highest P2A (bursty) and the lowest
// (calm), returning both series.
func (s *Study) Fig2efBurstSeries(opt NodeWindowOptions) Fig2efResult {
	mustOpt(opt.Validate())
	maxNodes, winSec := opt.MaxNodes, opt.WinSec
	if maxNodes <= 0 {
		maxNodes = 40
	}
	if winSec <= 0 {
		winSec = 20
	}
	var res Fig2efResult
	bestP2A, worstP2A := math.Inf(-1), math.Inf(1)
	s.eachBusyNode(maxNodes, winSec, func(binding *hypervisor.Binding, slot [][]float64) {
		nSlots := 0
		if len(slot) > 0 {
			nSlots = len(slot[0])
		}
		// Hottest WT by total.
		wtTot := make([]float64, binding.WTs)
		for q := range slot {
			for t := range slot[q] {
				wtTot[binding.WTOf[q]] += slot[q][t]
			}
		}
		hot := 0
		for i, v := range wtTot {
			if v > wtTot[hot] {
				hot = i
			}
		}
		series := make([]float64, nSlots)
		for q := range slot {
			if int(binding.WTOf[q]) != hot {
				continue
			}
			for t := range slot[q] {
				series[t] += slot[q][t]
			}
		}
		p2a := stats.P2A(series)
		if math.IsNaN(p2a) {
			return
		}
		gain := hypervisor.SimulateRebinding(binding, slot, hypervisor.DefaultRebindConfig()).Gain
		if p2a > bestP2A {
			bestP2A = p2a
			res.BurstyP2A, res.BurstySeries, res.BurstyGain = p2a, series, gain
		}
		if p2a < worstP2A {
			worstP2A = p2a
			res.CalmP2A, res.CalmSeries, res.CalmGain = p2a, series, gain
		}
	})
	return res
}

// Render prints Fig 2(e)/(f) with sparklines of the two hottest-WT series.
func (r Fig2efResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2(e,f): hottest-WT burst profiles at 10ms\n")
	fmt.Fprintf(&b, "  node-b (bursty): P2A %6.1f, rebinding gain %.2f  %s\n",
		r.BurstyP2A, r.BurstyGain, report.Sparkline(r.BurstySeries, 60))
	fmt.Fprintf(&b, "  node-r (calm):   P2A %6.1f, rebinding gain %.2f  %s\n",
		r.CalmP2A, r.CalmGain, report.Sparkline(r.CalmSeries, 60))
	return b.String()
}
