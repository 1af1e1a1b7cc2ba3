package core

import (
	"fmt"
	"math"
	"strings"

	"ebslab/internal/cluster"
	"ebslab/internal/invariant"
	"ebslab/internal/report"
	"ebslab/internal/stats"
	"ebslab/internal/throttle"
)

// throttleGroup is one unit of §5's analysis: the VDs of a multi-VD VM, or
// all VDs of a tenant's VMs co-located on one compute node.
type throttleGroup struct {
	label string
	vds   []cluster.VDID
}

// multiVDGroups returns every VM mounting at least minVDs disks.
func (s *Study) multiVDGroups(minVDs int) []throttleGroup {
	var out []throttleGroup
	top := s.Fleet.Topology
	for i := range top.VMs {
		if len(top.VMs[i].VDs) >= minVDs {
			out = append(out, throttleGroup{
				label: fmt.Sprintf("vm-%d", i),
				vds:   top.VMs[i].VDs,
			})
		}
	}
	return out
}

// multiVMNodeGroups returns groups of VDs owned by a single tenant with at
// least two VMs on the same compute node.
func (s *Study) multiVMNodeGroups() []throttleGroup {
	top := s.Fleet.Topology
	var out []throttleGroup
	for n := range top.Nodes {
		byUser := map[cluster.UserID][]cluster.VDID{}
		vmCount := map[cluster.UserID]int{}
		for _, vm := range top.Nodes[n].VMs {
			u := top.VMs[vm].User
			vmCount[u]++
			byUser[u] = append(byUser[u], top.VMs[vm].VDs...)
		}
		for u, vds := range byUser {
			if vmCount[u] >= 2 {
				out = append(out, throttleGroup{
					label: fmt.Sprintf("node-%d-user-%d", n, u),
					vds:   vds,
				})
			}
		}
	}
	return out
}

// scopeGroups returns the groups of one §5 scope and its label: the multi-VD
// VMs, or with multiVMNode a tenant's co-located VMs.
func (s *Study) scopeGroups(multiVMNode bool) (string, []throttleGroup) {
	if multiVMNode {
		return "multi-VM node", s.multiVMNodeGroups()
	}
	return "multi-VD VM", s.multiVDGroups(2)
}

// simulateGroup replays one group through the throttle, optionally with
// lending, auditing the grant budget every second (law throttle/grants).
func (s *Study) simulateGroup(g throttleGroup, lend *throttle.Lending) throttle.Result {
	caps := make([]throttle.Caps, len(g.vds))
	demand := make([][]throttle.Demand, len(g.vds))
	for i, vd := range g.vds {
		d := &s.Fleet.Topology.VDs[vd]
		caps[i] = throttle.Caps{Tput: d.ThroughputCap, IOPS: d.IOPSCap}
		series := s.Fleet.VDSeries(vd, s.Dur)
		row := make([]throttle.Demand, len(series))
		for t, smp := range series {
			row[t] = throttle.Demand{
				ReadBps: smp.ReadBps, WriteBps: smp.WriteBps,
				ReadIOPS: smp.ReadIOPS, WriteIOPS: smp.WriteIOPS,
			}
		}
		demand[i] = row
	}
	res, msgs := new(throttle.Scratch).Replay(caps, demand, throttle.Replay{Lend: lend, Audit: true})
	var rep invariant.Report
	rep.AddAll("throttle/grants", msgs)
	s.fold(&rep)
	return res
}

// Fig3aResult is the single-VD-throttle showcase of Figure 3(a): one VM
// where a disk throttles while the VM total sits far below its summed cap.
type Fig3aResult struct {
	VM            string
	NumVDs        int
	ThrottledSecs int
	// VDNorm and VMNorm are the throttled VD's and whole VM's throughput
	// per second, normalized by the VM's summed throughput cap.
	VDNorm, VMNorm []float64
	// VDCapNorm is the throttled VD's cap over the VM cap.
	VDCapNorm float64
	// PeakRAR is the highest RAR observed while throttled.
	PeakRAR float64
}

// Fig3aSingleVDCase finds the multi-VD VM whose throttle events have the
// most group headroom and extracts its normalized time series.
func (s *Study) Fig3aSingleVDCase() Fig3aResult {
	var best Fig3aResult
	best.PeakRAR = math.Inf(-1)
	for _, g := range s.multiVDGroups(4) {
		res := s.simulateGroup(g, nil)
		if len(res.Events) == 0 {
			continue
		}
		var peak float64
		hotVD := -1
		for _, ev := range res.Events {
			if ev.Dim == throttle.ByTput && ev.RAR > peak {
				peak, hotVD = ev.RAR, ev.VD
			}
		}
		if hotVD < 0 || peak <= best.PeakRAR {
			continue
		}
		var sumCap float64
		for _, vd := range g.vds {
			sumCap += s.Fleet.Topology.VDs[vd].ThroughputCap
		}
		vdNorm := make([]float64, s.Dur)
		vmNorm := make([]float64, s.Dur)
		for i, vd := range g.vds {
			series := s.Fleet.VDSeries(vd, s.Dur)
			for t, smp := range series {
				v := smp.Bps() / sumCap
				vmNorm[t] += v
				if i == hotVD {
					vdNorm[t] = v
				}
			}
		}
		best = Fig3aResult{
			VM: g.label, NumVDs: len(g.vds),
			ThrottledSecs: res.TotalThrottledSecs,
			VDNorm:        vdNorm, VMNorm: vmNorm,
			VDCapNorm: s.Fleet.Topology.VDs[g.vds[hotVD]].ThroughputCap / sumCap,
			PeakRAR:   peak,
		}
	}
	return best
}

// Render prints Fig 3(a).
func (r Fig3aResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 3(a): single-VD throttle case\n")
	if r.NumVDs == 0 {
		b.WriteString("  no throttled multi-VD VM found in window\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %s with %d VDs: %d throttled seconds\n", r.VM, r.NumVDs, r.ThrottledSecs)
	fmt.Fprintf(&b, "  throttled VD cap = %.1f%% of VM cap; peak RAR at throttle = %.1f%%\n",
		100*r.VDCapNorm, 100*r.PeakRAR)
	fmt.Fprintf(&b, "  peak VM offered load = %.1f%% of VM cap\n", 100*stats.Max(r.VMNorm))
	fmt.Fprintf(&b, "  throttled VD: %s\n", report.Sparkline(r.VDNorm, 60))
	fmt.Fprintf(&b, "  whole VM:     %s\n", report.Sparkline(r.VMNorm, 60))
	return b.String()
}

// Fig3bcResult merges Figures 3(b) and 3(c): the RAR distribution and the
// wr_ratio distribution of throttle events, for multi-VD VMs and multi-VM
// nodes.
type Fig3bcResult struct {
	Scope string // "multi-VD VM" or "multi-VM node"
	// Median RAR by throttling dimension.
	MedianRARTput, MedianRARIOPS float64
	// Fraction of events that are write-driven (wr_ratio > 1/3), read-driven
	// (< -1/3), and mixed.
	WriteDriven, ReadDriven, Mixed float64
	// TputOverIOPS is the ratio of throughput-triggered to IOPS-triggered
	// throttle events.
	TputOverIOPS float64
	Events       int
	Groups       int
}

// Fig3bRAR runs the throttle over all groups of the chosen scope and
// summarizes RAR and wr_ratio of the events.
func (s *Study) Fig3bRAR(multiVMNode bool) Fig3bcResult {
	scope, groups := s.scopeGroups(multiVMNode)
	res := Fig3bcResult{Scope: scope, Groups: len(groups)}
	var rarT, rarI, wr []float64
	var nTput, nIOPS int
	for _, g := range groups {
		r := s.simulateGroup(g, nil)
		for _, ev := range r.Events {
			res.Events++
			if ev.Dim == throttle.ByTput {
				nTput++
				rarT = appendNotNaN(rarT, ev.RAR)
			} else {
				nIOPS++
				rarI = appendNotNaN(rarI, ev.RAR)
			}
			wr = appendNotNaN(wr, ev.WrRatio)
		}
	}
	res.MedianRARTput = stats.Median(rarT)
	res.MedianRARIOPS = stats.Median(rarI)
	res.WriteDriven = stats.FractionWhere(wr, func(x float64) bool { return x > 1.0/3 })
	res.ReadDriven = stats.FractionWhere(wr, func(x float64) bool { return x < -1.0/3 })
	if !math.IsNaN(res.WriteDriven) && !math.IsNaN(res.ReadDriven) {
		res.Mixed = 1 - res.WriteDriven - res.ReadDriven
	} else {
		res.Mixed = math.NaN()
	}
	if nIOPS > 0 {
		res.TputOverIOPS = float64(nTput) / float64(nIOPS)
	} else {
		res.TputOverIOPS = math.Inf(1)
	}
	return res
}

// Render prints Fig 3(b)/(c).
func (r Fig3bcResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3(b,c): throttle events for %s (%d groups, %d events)\n", r.Scope, r.Groups, r.Events)
	fmt.Fprintf(&b, "  median RAR: throughput %.1f%%, IOPS %.1f%%\n", 100*r.MedianRARTput, 100*r.MedianRARIOPS)
	fmt.Fprintf(&b, "  events: write-driven %.1f%%, read-driven %.1f%%, mixed %.1f%%\n",
		100*r.WriteDriven, 100*r.ReadDriven, 100*r.Mixed)
	fmt.Fprintf(&b, "  throughput-triggered : IOPS-triggered = %.1f : 1\n", r.TputOverIOPS)
	return b.String()
}

// Fig3deResult is the theoretical reduction-rate study of Figures 3(d)/(e).
type Fig3deResult struct {
	Scope string
	Rates []float64 // lending rates p
	// MedianRR[i] is the median Equation-3 reduction rate at Rates[i],
	// split by dimension.
	MedianRRTput, MedianRRIOPS []float64
}

// lendingSweep returns the lending rates p the §5 figures evaluate.
func lendingSweep() []float64 { return []float64{0.2, 0.4, 0.6, 0.8} }

// lendingPeriodSec is how often Appendix B's lending re-evaluates.
const lendingPeriodSec = 60

// Fig3deReduction evaluates Equation 3 at every throttle event of the
// multi-VD VMs for several lending rates.
func (s *Study) Fig3deReduction() Fig3deResult {
	rates := lendingSweep()
	scope, groups := s.scopeGroups(false)
	res := Fig3deResult{Scope: scope, Rates: rates}
	// Collect events once.
	var events []throttle.Event
	for _, g := range groups {
		events = append(events, s.simulateGroup(g, nil).Events...)
	}
	for _, p := range rates {
		var rrT, rrI []float64
		for _, ev := range events {
			rr := throttle.ReductionRate(ev.Load, ev.AR, p)
			if math.IsNaN(rr) {
				continue
			}
			if ev.Dim == throttle.ByTput {
				rrT = append(rrT, rr)
			} else {
				rrI = append(rrI, rr)
			}
		}
		res.MedianRRTput = append(res.MedianRRTput, stats.Median(rrT))
		res.MedianRRIOPS = append(res.MedianRRIOPS, stats.Median(rrI))
	}
	return res
}

// Render prints Fig 3(d)/(e).
func (r Fig3deResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3(d,e): reduction rate for %s (lower = shorter throttle)\n", r.Scope)
	for i, p := range r.Rates {
		fmt.Fprintf(&b, "  p=%.1f: median RR throughput %.1f%%, IOPS %.1f%%\n",
			p, 100*r.MedianRRTput[i], 100*r.MedianRRIOPS[i])
	}
	return b.String()
}

// Fig3fgResult is the simulated lending-gain study of Figures 3(f)/(g).
type Fig3fgResult struct {
	Scope string
	Rates []float64
	// PosFrac[i] is the fraction of groups with positive gain at Rates[i];
	// NegFrac the fraction with negative gain; MedianGain the median.
	PosFrac, NegFrac, MedianGain []float64
	Groups                       int
}

// Fig3fgLendingGain simulates Appendix B lending over all groups of the
// chosen scope at several rates.
func (s *Study) Fig3fgLendingGain(multiVMNode bool) Fig3fgResult {
	rates := lendingSweep()
	scope, groups := s.scopeGroups(multiVMNode)
	res := Fig3fgResult{Scope: scope, Rates: rates}
	// Baselines once per group.
	type pair struct {
		g  throttleGroup
		wo throttle.Result
	}
	var active []pair
	for _, g := range groups {
		wo := s.simulateGroup(g, nil)
		if wo.TotalThrottledSecs > 0 {
			active = append(active, pair{g, wo})
		}
	}
	res.Groups = len(active)
	for _, p := range rates {
		var gains []float64
		for _, a := range active {
			w := s.simulateGroup(a.g, &throttle.Lending{Rate: p, PeriodSec: lendingPeriodSec})
			if g := throttle.LendingGain(a.wo, w); !math.IsNaN(g) {
				gains = append(gains, g)
			}
		}
		res.PosFrac = append(res.PosFrac, stats.FractionWhere(gains, func(x float64) bool { return x > 0 }))
		res.NegFrac = append(res.NegFrac, stats.FractionWhere(gains, func(x float64) bool { return x < 0 }))
		res.MedianGain = append(res.MedianGain, stats.Median(gains))
	}
	return res
}

// Render prints Fig 3(f)/(g).
func (r Fig3fgResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3(f,g): lending gain for %s (%d throttled groups)\n", r.Scope, r.Groups)
	for i, p := range r.Rates {
		fmt.Fprintf(&b, "  p=%.1f: positive %.1f%%, negative %.1f%%, median gain %.2f\n",
			p, 100*r.PosFrac[i], 100*r.NegFrac[i], r.MedianGain[i])
	}
	return b.String()
}
